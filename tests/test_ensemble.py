import hashlib
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wtree.cli as cli
import wtree.engine
import wtree.ensemble as ensemble
from wtree import (
    BudgetExceededError,
    DisorderModel,
    EdgeAddress,
    InsufficientSamplesError,
    TreeSpec,
    ValidationError,
    check_jensen,
    estimate_gamma,
    fluctuation_report,
    gamma_clean,
    pool_init,
    pool_step,
    quantile_width,
    resample_omega,
    stability_scan,
    solve_root_R_batch,
    stationary_disk,
)
from wtree.engine import as_point, sqrt_upper
from wtree.graphmodel import (
    DOMAIN_POOL_CHILD,
    DOMAIN_POOL_LENGTH,
    DOMAIN_POOL_REPLICA,
    DOMAIN_SCAN_ENERGY,
    OMEGA_VARIANCE,
    hash_words,
    omega_for_generation,
    omega_from_uniform,
    uniform01,
)
from wtree.regular import _cut_seed, cut_seed_disk, fixed_point_batch, linear_response
from oracles import cos_sin, edge_step_R, relaxed_gamma

Z_MID = complex(2.0, 0.01)
SPEC6 = TreeSpec(K=2, L=1.0, depth=6)
CLEAN = DisorderModel(lam=0.0)


def _im_R(pool):
    w = complex(np.sqrt(pool.z))
    m = pool.values
    return (1j * w * (1.0 + m) / (1.0 - m)).imag


def test_pool_init_disk_zero():
    # pools start at the stationary value; a pool at m = 0 is set by hand
    pool = pool_init(SPEC6, CLEAN, Z_MID, size=1000)
    pool.values[:] = 0
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
    pool = pool_init(TreeSpec(K=2, L=1.0, depth=1), CLEAN, z, size=16)
    pool.values[:] = 0
    m_star = stationary_disk(z, 2, 1.0)
    for _ in range(400):
        pool_step(pool)
    assert np.max(np.abs(pool.values - m_star)) < 1e-10


def test_pool_clean_convergence_mean_small_eta():
    pool = pool_init(SPEC6, CLEAN, Z_MID, size=16)
    pool.values[:] = 0
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


# Pool members after 5 steps from the start values below, cycled to the
# pool size (lam = 0.3, master seed 11, z = 2 + 0.05i), pinned to the bit:
# (K, dist, size, poisoned, members, resampled).  The one-member pool
# merges and pulls one element; the poisoned pool starts with member 0 at
# the singular point m = 1, which pins the resample path.  The last case
# runs (steps, SHA-256 of the member bytes) instead: 40 steps of 2048
# members span five blocks of hashed draws.
_POOL_START = [0.3 + 0.1j, -0.2 + 0.4j, 0.1 - 0.5j]
_PINNED_POOLS = [
    (1, "uniform", 3, False, [("0x1.68436e74608d2p-2", "0x1.e90265d3acb46p-3"),
                              ("0x1.b5cad3ffbc57bp-2", "-0x1.0c51ec4db3f72p-5"),
                              ("0x1.be3c071ff9c6ap-3", "0x1.7325456e478b8p-2")], 0),
    (1, "two_point", 3, False, [("-0x1.cf528ae013632p-5", "0x1.a97a588a50a0bp-2"),
                                ("0x1.b6afac99c1b6ap-2", "-0x1.d44db6fa60883p-8"),
                                ("-0x1.93090a1d8eab0p-2", "-0x1.dc4340eb6f9dap-4")], 0),
    (1, "truncated_normal", 3, False, [("0x1.74a3935e78eedp-2", "0x1.c3795d0c8df6dp-3"),
                                       ("0x1.b61ee14581a83p-2", "-0x1.bd4e7d46019aap-6"),
                                       ("0x1.06a826cc4c84cp-2", "0x1.590b2f42f8df2p-2")], 0),
    (2, "uniform", 3, False, [("-0x1.2bef97373d71ep-4", "0x1.79e7921aa182ep-4"),
                              ("-0x1.0e65abea4c7fdp-4", "-0x1.fd036e1af6521p-8"),
                              ("-0x1.4d320e24997c3p-4", "0x1.dd99d7d367b7ap-7")], 0),
    (2, "two_point", 3, False, [("-0x1.18cbf70554bb0p-3", "0x1.310f1d89ac0c6p-4"),
                                ("-0x1.07aeb53413092p-3", "-0x1.f4576647a6c1bp-4"),
                                ("0x1.0c569ec858173p-5", "-0x1.fa01adb171ff9p-4")], 0),
    (2, "truncated_normal", 3, False, [("-0x1.f813db78f2d22p-5", "0x1.780de8d6272a6p-4"),
                                       ("-0x1.c1aea4a3838f2p-5", "-0x1.00c84b972bb2ap-8"),
                                       ("-0x1.1e69a5ad03180p-4", "0x1.88a6f7074206ep-6")], 0),
    (3, "uniform", 3, False, [("-0x1.0096519098bb0p-2", "0x1.189c6dbe9842dp-3"),
                              ("-0x1.87e24c0a44143p-3", "0x1.065086d232e31p-5"),
                              ("-0x1.eb4685f69361ep-3", "-0x1.5d297d56f69d1p-9")], 0),
    (3, "two_point", 3, False, [("-0x1.5e1a915514f9bp-2", "0x1.50af222aea378p-4"),
                                ("-0x1.527d8a2a1a62ap-2", "-0x1.841bb885d0534p-6"),
                                ("0x1.2a711e0dcbc77p-6", "-0x1.5222cd4b44a64p-2")], 0),
    (3, "truncated_normal", 3, False, [("-0x1.e0b0b5f77db62p-3", "0x1.198995d120a77p-3"),
                                       ("-0x1.66244c2e3fc64p-3", "0x1.1839f582497acp-5"),
                                       ("-0x1.cc044dff37bb5p-3", "0x1.1002d03465935p-6")], 0),
    (2, "uniform", 1, False, [("0x1.4d2fc0a3a376ap-2", "-0x1.7624efb1273aap-3")], 0),
    (2, "uniform", 8, True, [("-0x1.676df5c43f90ep-2", "0x1.b2ae82ddb7826p-5"),
                             ("-0x1.bb5cc1287d4cdp-3", "0x1.8f99024130002p-5"),
                             ("-0x1.359c903adddc7p-2", "-0x1.7de5183b8c6c5p-4"),
                             ("-0x1.4c6a2c5fc17f9p-2", "-0x1.acb7867763977p-7"),
                             ("-0x1.b7c62de9c3fc7p-3", "0x1.566834d96d4f9p-3"),
                             ("-0x1.2aa284f0a099ep-2", "0x1.4618b3ce3eb4cp-6"),
                             ("-0x1.64a9d500cfaa9p-2", "0x1.796fd0eac0d17p-4"),
                             ("-0x1.f921c72dc5769p-3", "0x1.fb83c67f9ae36p-5")], 5),
    pytest.param(2, "uniform", 2048, True,
                 (40, "25fe00df8508e18efb11a91b6683177ff94bb1bda528c73810c94b19f5e35cc6"), 4,
                 id="2-uniform-2048-True-sha256-4"),
]


@pytest.mark.parametrize("K,dist,size,poisoned,members,resampled", _PINNED_POOLS)
def test_pool_step_pinned(K, dist, size, poisoned, members, resampled):
    dm = DisorderModel(lam=0.3, dist=dist, master_seed=11)
    pool = pool_init(TreeSpec(K=K, L=1.0, depth=6), dm, complex(2.0, 0.05), size)
    pool.values[:] = np.resize(_POOL_START, size)
    if poisoned:
        pool.values[0] = 1.0
    steps = members[0] if isinstance(members, tuple) else 5
    for _ in range(steps):
        pool_step(pool)
    if isinstance(members, tuple):
        assert hashlib.sha256(pool.values.tobytes()).hexdigest() == members[1]
    else:
        expected = [complex(float.fromhex(re), float.fromhex(im)) for re, im in members]
        assert pool.values.tolist() == expected
    assert (pool.generation, pool.resampled) == (steps, resampled)


def _single_generation_draws(pool, gen):
    """Child slots and edge lengths of one generation, hashed on their own.

    The words are (seed, domain, generation, member[, slot]) with the
    generation as a scalar, as a pool hashed them one step at a time.
    """
    P, K, dm = pool.size, pool.spec.K, pool.dm
    members = np.arange(P, dtype=np.uint64).reshape(P, 1)
    slots = np.arange(K, dtype=np.uint64).reshape(1, K)
    h = hash_words(dm.master_seed, DOMAIN_POOL_CHILD, gen, members, slots)
    u = uniform01(hash_words(dm.master_seed, DOMAIN_POOL_LENGTH, gen, members[:, 0]))
    lengths = pool.spec.L * np.exp(dm.lam * omega_from_uniform(dm.dist, u))
    return (h % np.uint64(P)).astype(np.int64), lengths


@pytest.mark.parametrize("K", [1, 2, 3])
def test_pool_draws_cross_block_boundaries(K):
    # 5000 members hold 6, 3 and 2 generations per block of draws for K = 1, 2, 3
    dm = DisorderModel(lam=0.3, dist="truncated_normal", master_seed=5)
    pool = pool_init(TreeSpec(K=K, L=1.0, depth=6), dm, complex(2.0, 0.05), 5000)

    def step_and_check(gen):
        assert pool.generation == gen
        child_idx, lengths = ensemble._pool_advance(pool)
        ref_idx, ref_lengths = _single_generation_draws(pool, gen)
        np.testing.assert_array_equal(child_idx, ref_idx)
        assert lengths.tobytes() == ref_lengths.tobytes()
        return pool._draws.g0

    blocks = {step_and_check(gen) for gen in range(20)}
    assert len(blocks) >= 4

    # a generation set back by hand, and one far ahead, draw as if reached in order
    for start in (1, 10**6):
        pool.generation = start
        for gen in range(start, start + 7):
            step_and_check(gen)

    # other disorder set mid-block draws its own lengths from the next step on
    pool.dm = DisorderModel(lam=0.1, dist="uniform", master_seed=6)
    for gen in range(pool.generation, pool.generation + 2):
        step_and_check(gen)

    # a singular member on a block's first generation: the resampled rows
    # change the returned slots only, never the cached block
    gen = pool.generation = 3 * 10**6
    ref_idx, ref_lengths = _single_generation_draws(pool, gen)
    pool.values[ref_idx[0, 0]] = 1.0
    child_idx, lengths = ensemble._pool_advance(pool)
    hit = np.any(ref_idx == ref_idx[0, 0], axis=1)
    assert pool.resampled == hit.sum() > 0
    np.testing.assert_array_equal(child_idx[~hit], ref_idx[~hit])
    assert np.all(np.any(child_idx[hit] != ref_idx[hit], axis=1))
    assert pool._draws.g0 == gen
    np.testing.assert_array_equal(pool._draws.child_idx[0], ref_idx)
    assert lengths.tobytes() == ref_lengths.tobytes()
    step_and_check(gen + 1)
    assert np.all(np.isfinite(pool.values))


@pytest.mark.parametrize(
    "kwargs",
    [{"burn_in": -1}, {"pool_size": 0}, {"pool_size": -2}],
    ids=["burn_in=-1", "pool_size=0", "pool_size=-2"],
)
def test_pool_counts_validated_before_sampling(monkeypatch, kwargs):
    def no_pool(*args, **kw):
        raise AssertionError("a pool was sampled")

    monkeypatch.setattr(ensemble, "pool_init", no_pool)
    dm = DisorderModel(lam=0.1, master_seed=1)
    with pytest.raises(ValidationError):
        estimate_gamma(SPEC6, dm, Z_MID, n=64, source="pool", **kwargs)
    if set(kwargs) == {"burn_in"}:
        with pytest.raises(ValidationError):
            fluctuation_report(SPEC6, dm, Z_MID, 64, source="pool", **kwargs)


def test_pool_collection_counts_resamples(monkeypatch):
    # The collected generation is a pool step too: its singular merges
    # must reach the pool's resample count.  Every step leaves member 0
    # of the first pool at m = 1, so the collection starts poisoned.
    seen = []
    step = ensemble.pool_step

    def poisoning_step(pool):
        step(pool)
        pool.values[0, 0] = 1.0
        seen.append((pool, pool.resampled))
        return pool

    monkeypatch.setattr(ensemble, "pool_step", poisoning_step)
    dm = DisorderModel(lam=0.1, master_seed=1)
    est = estimate_gamma(SPEC6, dm, Z_MID, n=64, source="pool", burn_in=0, pool_size=16)
    assert math.isfinite(est.gamma_hat)
    # burn_in 0 is a floor: R = 64 / 16 = 4 pools step _auto_burn_in generations
    pool, before = seen[-1]
    assert pool.values.shape == (4, 16)
    assert len(seen) == ensemble._auto_burn_in(Z_MID, 2, 1.0)
    assert pool.generation == len(seen) + 1
    assert pool.resampled > before


def _row_pools(stack):
    """One pool per row of a stacked pool, with that row's values."""
    pools = []
    for b, dm in enumerate(stack.dm):
        pool = pool_init(stack.spec, dm, stack.z, stack.values.shape[1])
        pool.values[:] = stack.values[b]
        pool.generation = stack.generation
        pools.append(pool)
    return pools


def _assert_rows_equal(stack, pools):
    for b, pool in enumerate(pools):
        assert stack.values[b].tobytes() == pool.values.tobytes()
        assert pool.generation == stack.generation
    assert stack.resampled == sum(pool.resampled for pool in pools)


@pytest.mark.parametrize("dist", ["uniform", "two_point", "truncated_normal"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_stacked_pool_equals_one_point_pools(K, dist):
    # rows 0 and 2 share a master seed, so they share hashed words
    models = [
        DisorderModel(lam=0.3, dist=dist, master_seed=5),
        DisorderModel(lam=0.1, dist=dist, master_seed=6),
        DisorderModel(lam=0.05, dist=dist, master_seed=5),
    ]
    spec = TreeSpec(K=K, L=1.0, depth=6)
    stack = pool_init(spec, models, complex(2.0, 0.05), 1000)
    assert stack.values.shape == (3, 1000) and stack.size == 3000
    assert stack.dm == tuple(models)
    for b in range(3):
        stack.values[b] = np.roll(np.resize(_POOL_START, 1000), b)
    pools = _row_pools(stack)

    # 3000 members hold 10, 5 and 3 generations per block of draws for K = 1, 2, 3
    blocks = set()
    for _ in range(25):
        pool_step(stack)
        blocks.add(stack._draws.g0)
        for pool in pools:
            pool_step(pool)
        _assert_rows_equal(stack, pools)
    assert len(blocks) >= 3

    # a singular member of row 1 on a block's first generation: only that
    # row resamples, and the cached block keeps the hashed slots
    gen = stack.generation = 10**6
    for pool in pools:
        pool.generation = gen
    ref_idx, _ = _single_generation_draws(pools[1], gen)
    stack.values[1, ref_idx[0, 0]] = pools[1].values[ref_idx[0, 0]] = 1.0
    resampled = stack.resampled
    pool_step(stack)
    for pool in pools:
        pool_step(pool)
    _assert_rows_equal(stack, pools)
    assert stack.resampled - resampled == pools[1].resampled > 0
    assert pools[0].resampled == pools[2].resampled == 0
    assert stack._draws.g0 == gen
    np.testing.assert_array_equal(stack._draws.child_idx[0, 1] - 1000, ref_idx)
    for _ in range(4):
        pool_step(stack)
        for pool in pools:
            pool_step(pool)
        _assert_rows_equal(stack, pools)


def test_clean_pool_rows_take_one_phase(monkeypatch):
    # every length of a lam = 0 row is exactly L, so a block of draws
    # computes their phase exp(2i*w*L) once: each of those rows' phases is the
    # bits of the phase of an array of lengths L, and the stack still
    # equals its lone pools
    K, P, L = 2, 16, 1.3
    z = complex(2.0, 0.05)
    models = [
        DisorderModel(lam=0.2, master_seed=3),
        DisorderModel(lam=0.0, master_seed=3),
        DisorderModel(lam=0.0, dist="truncated_normal", master_seed=4),
    ]
    phased = []
    phase = ensemble._phase

    def counting(w, le, out=None):
        phased.append(np.size(le))
        return phase(w, le, out)

    monkeypatch.setattr(ensemble, "_phase", counting)
    stack = pool_init(TreeSpec(K=K, L=L, depth=6), models, z, P)
    for b in range(3):
        stack.values[b] = np.roll(np.resize(_POOL_START, P), b)
    pools = _row_pools(stack)
    for _ in range(30):
        pool_step(stack)
        for pool in pools:
            pool_step(pool)
        _assert_rows_equal(stack, pools)
    T = stack._draws.lengths.shape[0]
    assert T == 2**15 // (3 * P * K)
    # the block of the stack (one call for the lam = 0.2 row, one for both
    # clean rows), then the first blocks of the lone pools
    assert phased == [T * P, 1, 2**15 // (P * K) * P, 1, 1]
    every = wtree.engine._phase(sqrt_upper(z), np.full((T, P), L))
    for b in (1, 2):
        assert np.all(stack._draws.lengths[:, b] == L)
        assert stack._draws.phases[:, b].tobytes() == every.tobytes()


def _gather_then_merge_step(stack):
    """The stack's next generation by the direct route, row by row: gather
    the children's disk values, map each to its merge term, sum siblings
    with numpy's reduction, divide, pull."""
    w = sqrt_upper(stack.z)
    P, K = stack.values.shape[1], stack.spec.K
    out = np.empty_like(stack.values)
    for b, dm in enumerate(stack.dm):
        row = SimpleNamespace(size=P, spec=stack.spec, dm=dm)
        idx, lengths = _single_generation_draws(row, stack.generation)
        m = stack.values[b][idx]
        zeta = ((1.0 + m) / (1.0 - m)).sum(axis=1)
        out[b] = np.exp((2j * w) * lengths) * ((zeta - 1.0) / (zeta + 1.0))
    return out


@pytest.mark.parametrize("K", [1, 2, 3])
def test_pool_step_equals_gather_then_merge(K):
    models = [
        DisorderModel(lam=0.3, dist="uniform", master_seed=5),
        DisorderModel(lam=0.1, dist="two_point", master_seed=6),
        DisorderModel(lam=0.2, dist="truncated_normal", master_seed=7),
    ]
    stack = pool_init(TreeSpec(K=K, L=1.0, depth=6), models, complex(2.0, 0.05), 2000)
    for b in range(3):
        stack.values[b] = np.roll(np.resize(_POOL_START, 2000), b)
    # 6000 members hold 5, 2 and 1 generations per block of draws for K = 1, 2, 3
    blocks = set()
    for _ in range(12):
        expected = _gather_then_merge_step(stack)
        pool_step(stack)
        blocks.add(stack._draws.g0)
        assert stack.values.tobytes() == expected.tobytes()
    assert len(blocks) >= 3 and stack.resampled == 0


# (K, resampled, SHA-256 of the member bytes) after 10 steps of three
# 64-member rows with a member at m = 1 in rows 1 and 2, recorded with a
# step that gathered disk values and merged them with numpy's reduction
_POISONED_STACKS = [
    (1, 2, "dda75a6a79d3e6a168ed599e9f70e6e5d90a1a65aedb2b39e64eba73946d9546"),
    (2, 2, "b73aa35effedadc5ba9da38da35a76ed232d1dfddd71531e3da6a4482ff48785"),
    (3, 4, "d767d7c5c40499f42013c69c83785b5391f0a0338d02bb691b7c24708db0a1b8"),
]


@pytest.mark.parametrize("K,resampled,digest", _POISONED_STACKS)
def test_poisoned_stack_resamples_quietly(K, resampled, digest):
    models = [
        DisorderModel(lam=0.3, master_seed=5),
        DisorderModel(lam=0.1, dist="two_point", master_seed=6),
        DisorderModel(lam=0.2, dist="truncated_normal", master_seed=7),
    ]
    stack = pool_init(TreeSpec(K=K, L=1.0, depth=6), models, complex(2.0, 0.05), 64)
    for b in range(3):
        stack.values[b] = np.roll(np.resize(_POOL_START, 64), b)
    stack.values[1, 0] = stack.values[2, 5] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(10):
            pool_step(stack)
    assert stack.resampled == resampled
    assert hashlib.sha256(stack.values.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("K", [1, 2, 3])
def test_stacked_one_member_rows_keep_rounding(K):
    # one member per row: each lone pool pulls one element out of place,
    # and the stacked rows must round the same through the block phases
    models = [
        DisorderModel(lam=0.3, dist="uniform", master_seed=11),
        DisorderModel(lam=0.2, dist="two_point", master_seed=12),
        DisorderModel(lam=0.1, dist="truncated_normal", master_seed=13),
        DisorderModel(lam=0.0, master_seed=11),
    ]
    stack = pool_init(TreeSpec(K=K, L=1.0, depth=6), models, complex(2.0, 0.05), 1)
    stack.values[:, 0] = _POOL_START + [0.05 - 0.3j]
    pools = _row_pools(stack)
    for _ in range(60):
        pool_step(stack)
        for pool in pools:
            pool_step(pool)
        _assert_rows_equal(stack, pools)


def test_estimate_gamma_sequence_equals_loop(monkeypatch):
    spec = TreeSpec(K=2, L=1.0, depth=4)
    z = complex(2.0, 0.05)
    models = [
        DisorderModel(lam=0.2, dist="uniform", master_seed=3),
        DisorderModel(lam=0.0, dist="uniform", master_seed=3),
        DisorderModel(lam=0.1, dist="two_point", master_seed=4),
    ]
    pool_kw = dict(burn_in=10, pool_size=16)
    for source, kw in (("pool", pool_kw), ("direct", {})):
        stacked = estimate_gamma(spec, models, z, 64, source=source, **kw)
        assert stacked == [estimate_gamma(spec, dm, z, 64, source=source, **kw) for dm in models]
    # a stack of many generations: each is evaluated as a block of its own
    big = [DisorderModel(lam=lam, master_seed=3) for lam in (0.0, 0.2)]
    big_kw = dict(pool_size=1024, burn_in=10)
    stacked = estimate_gamma(spec, big, complex(2.0, 0.1), 8192, **big_kw)
    assert stacked == [estimate_gamma(spec, dm, complex(2.0, 0.1), 8192, **big_kw) for dm in big]
    one = estimate_gamma(spec, models[:1], z, 64, **pool_kw)
    assert isinstance(one, list) and len(one) == 1

    # one step per burn-in generation of the stack, not per row or pool
    steps = []
    real_step = ensemble.pool_step

    def counted(pool):
        steps.append(pool.values.shape)
        return real_step(pool)

    monkeypatch.setattr(ensemble, "pool_step", counted)
    estimate_gamma(spec, models, z, 64, **pool_kw)
    # R = 64 / 16 = 4 pools of each disordered model, two of them, step
    # max(burn_in, _auto_burn_in) generations; the lam = 0 row is not stepped
    burn = max(10, ensemble._auto_burn_in(z, 2, 1.0))
    assert steps == [(8, 16)] * burn


@pytest.mark.parametrize(
    "dm",
    [[], [DisorderModel(lam=0.1), "uniform"], "uniform", None, 0.1],
    ids=["empty", "mixed", "str", "None", "float"],
)
def test_disorder_sequence_validated_before_sampling(monkeypatch, dm):
    def no_sampling(*args, **kw):
        raise AssertionError("a pool or tree was sampled")

    monkeypatch.setattr(ensemble, "pool_init", no_sampling)
    monkeypatch.setattr(ensemble, "solve_root_R_batch", no_sampling)
    for source in ("pool", "direct"):
        with pytest.raises(ValidationError):
            estimate_gamma(SPEC6, dm, Z_MID, n=64, source=source)
    monkeypatch.undo()
    with pytest.raises(ValidationError):
        pool_init(SPEC6, dm, Z_MID, 8)


def test_estimate_gamma_pool_pinned():
    # one model's pool pass: R = 6 pools of P = 8 members, burnt in for
    # _auto_burn_in(z, 2, 1.0) = 80 generations
    expected = {
        "uniform": ("0x1.2c4fa216b551ep-6", "0x1.7addb2c595452p-11"),
        "two_point": ("0x1.3c9477b7ff1b1p-6", "0x1.6129f5d452399p-10"),
    }
    for dist, (g_hex, se_hex) in expected.items():
        est = estimate_gamma(
            TreeSpec(K=2, L=1.0, depth=4),
            DisorderModel(lam=0.2, dist=dist, master_seed=3),
            complex(2.0, 0.05),
            48,
            source="pool",
            burn_in=10,
            pool_size=8,
        )
        assert (est.gamma_hat, est.stderr, est.n) == (
            float.fromhex(g_hex),
            float.fromhex(se_hex),
            48,
        )


def test_pool_sample_rows_are_lone_pools():
    # pool r of a disordered model is the lone pool of the model itself
    # (r = 0) or of its replica seed, stepped max(burn_in, _auto_burn_in)
    # generations and read on the next; a lam = 0 row is the clean
    # stationary sample and is not stepped
    spec = TreeSpec(K=2, L=1.0, depth=4)
    z = complex(2.0, 0.05)
    w = sqrt_upper(z)
    models = [
        DisorderModel(lam=0.2, master_seed=3),
        DisorderModel(lam=0.0, master_seed=3),
        DisorderModel(lam=0.1, dist="two_point", master_seed=4),
    ]
    # P = 16 members, R = ceil(48 / 16) = 3 pools per model
    R, R_kids, lengths, _ = ensemble._sample(spec, models, as_point(z), 48, "pool", 10, 16)
    assert R.shape == lengths.shape == (3, 3, 16) and R_kids.shape == (3, 3, 16, 2)
    steps = max(10, ensemble._auto_burn_in(z, 2, 1.0))
    for b in (0, 2):
        for r in range(3):
            seed = models[b].master_seed
            if r:
                seed = hash_words(seed, DOMAIN_POOL_REPLICA, r)
            pool = pool_init(spec, replace(models[b], master_seed=seed), z, 16)
            for _ in range(steps):
                pool_step(pool)
            old = pool.values
            child_idx, le = ensemble._pool_advance(pool)
            assert R[b, r].tobytes() == wtree.engine._disk_to_r(pool.values, w).tobytes()
            assert R_kids[b, r].tobytes() == wtree.engine._disk_to_r(old[child_idx], w).tobytes()
            assert lengths[b, r].tobytes() == le.tobytes()
    seed = stationary_disk(z, 2, 1.0)
    assert np.all(R[1] == wtree.engine._disk_to_r(seed, w))
    assert np.all(R_kids[1] == R[1][..., None]) and np.all(lengths[1] == 1.0)
    # three equal pool means: the spread is exactly 0, where numpy's std of
    # three equal values need not be
    clean = estimate_gamma(spec, models, z, 48, burn_in=10, pool_size=16)[1]
    assert clean.stderr == 0.0
    assert abs(clean.gamma_hat - gamma_clean(z, 2, 1.0)) <= 1e-12 * clean.gamma_hat


def test_pool_sample_solves_stationary_value_once(monkeypatch):
    # the lam = 0 rows' fill and the pools' start are one stationary solve
    calls = []
    stationary = ensemble.stationary_disk

    def counting(*args):
        calls.append(args)
        return stationary(*args)

    monkeypatch.setattr(ensemble, "stationary_disk", counting)
    spec = TreeSpec(K=2, L=1.0, depth=4)
    z = as_point(complex(2.0, 0.05))
    for lams in ([0.0, 0.1, 0.2], [0.1], [0.0]):
        calls.clear()
        models = [DisorderModel(lam=lam, master_seed=3) for lam in lams]
        R, _, _, _ = ensemble._sample(spec, models, z, 48, "pool", 10, 16)
        assert len(calls) == 1
        if lams[0] == 0.0:
            assert np.all(R[0] == wtree.engine._disk_to_r(stationary(z, 2, 1.0), sqrt_upper(z)))


def test_estimate_gamma_clean_exact(monkeypatch):
    g0 = gamma_clean(Z_MID, 2, 1.0)
    for source in ("pool", "direct"):
        est = estimate_gamma(SPEC6, CLEAN, Z_MID, n=500, source=source)
        assert abs(est.gamma_hat - g0) < 1e-12
        assert est.stderr <= 1e-13
        assert est.source == source
        assert est.n >= 500
    # beside a disordered row, a clean direct row's samples are all
    # gamma0 and its Jensen control is 0 (dropped by the fit), for any K
    fits = _recorded_fits(monkeypatch)
    for K in (1, 2, 3):
        spec = TreeSpec(K=K, L=1.0, depth=4)
        clean, _ = estimate_gamma(
            spec, [CLEAN, DisorderModel(lam=0.1, master_seed=2)], Z_MID, 16, source="direct"
        )
        assert abs(clean.gamma_hat - gamma_clean(Z_MID, K, 1.0)) < 1e-12
        assert clean.stderr == 0.0
        y, x = fits[-2]
        assert np.all(y == y[0]) and np.all(x[-1] == 0.0)


@pytest.mark.parametrize("source", ["direct", "pool"])
def test_estimate_gamma_clean_at_huge_eta(source):
    # Im(w)*l is about 707 at eta 1e6, where cos(w*l) and sin(w*l) overflow;
    # the disk-picture edge ratio does not
    z = complex(2.0, 1e6)
    g0 = gamma_clean(z, 2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimate_gamma(SPEC6, CLEAN, z, n=64, source=source, burn_in=5)
    assert abs(est.gamma_hat - g0) <= 1e-12 * g0
    assert est.stderr == 0.0


def _recorded_samples(spec, dm, z, n, source, burn_in=0, pool_size=None):
    """What the sampling pass returns for one model: R (S,), R_kids (S, K) and lengths (S,)."""
    R, R_kids, lengths, _ = ensemble._sample(spec, dm, as_point(z), n, source, burn_in, pool_size)
    return R.ravel(), R_kids.reshape(-1, spec.K), lengths.ravel()


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("source", ["direct", "pool"])
def test_gamma_samples_match_half_plane_route(source, K):
    # each sample's children are its far end (Kirchhoff), and its term is
    # the current loss plus Jensen gap, here read through the half-plane
    # edge ratio cos(wl) + R sin(wl)/w instead of the disk picture
    spec = TreeSpec(K=K, L=1.0, depth=4)
    dm = DisorderModel(lam=0.3, dist="uniform", master_seed=5)
    z = complex(2.0, 0.05)
    w = sqrt_upper(z)
    kw = dict(burn_in=30, pool_size=16)
    R, R_kids, lengths = _recorded_samples(spec, dm, z, 48, source, **kw)
    assert R_kids.shape == (R.size, K)
    terms = []
    for r, kids, le in zip(R, R_kids, lengths):
        far = edge_step_R(complex(r), float(le), z)
        assert abs(far - kids.sum()) <= 1e-10 * abs(far)
        c, s = cos_sin(w, float(le))
        ratio = abs(c + r * s / w)
        current = math.log(r.imag / (ratio**2 * kids.imag.sum()))
        jensen = math.log(kids.imag.mean()) - float(np.mean(np.log(kids.imag)))
        terms.append(0.5 * (current + jensen))
    est = estimate_gamma(spec, dm, z, 48, source=source, **kw)
    if source == "direct":
        # the root step reproduces the one-tree root solve
        root = solve_root_R_batch(spec, dm, z, cut_seed_disk(z, K, 1.0), range(48))
        np.testing.assert_allclose(R, root, rtol=1e-13, atol=0)
        # the control-variate fit on the root omegas, the children's
        # generation means and the Jensen control
        gamma, se = _lstsq_fit(terms, _kept(_scalar_controls(spec, dm, z, 48)))
    else:
        gamma = float(np.mean(terms))
        # three generations of 16 members: the spread of generation means
        se = np.reshape(terms, (3, 16)).mean(axis=1).std(ddof=1) / math.sqrt(3)
    assert abs(est.gamma_hat - gamma) <= 1e-12 * abs(est.gamma_hat)
    assert abs(est.stderr - se) <= 1e-12 * est.stderr


def _scalar_controls(spec, dm, z, n):
    """The direct fit's depth + 2 controls of replicas 0..n-1, (n, depth + 2), from omegas drawn edge by edge.

    The root omega; per generation g = 1..depth, the sum over the K
    children of the mean omega of generation g of their subtrees; and
    Q - E Q, Q a quarter of the population variance over the children
    of lam * sum_g c_g * xbar_{k,g}.
    """
    K, depth = spec.K, spec.depth
    c, c_j = linear_response(z, K, spec.L, depth, OMEGA_VARIANCE[dm.dist])
    rows = []
    for r in range(n):
        xbar = np.array([
            [
                np.mean([
                    resample_omega(dm, EdgeAddress((k,) + tail), r)
                    for tail in itertools.product(range(K), repeat=g - 1)
                ])
                for g in range(1, depth + 1)
            ]
            for k in range(K)
        ])
        ell = dm.lam * (xbar @ c)
        q = 0.25 * np.var(ell) - dm.lam**2 * c_j
        rows.append([resample_omega(dm, EdgeAddress(), r), *xbar.sum(axis=0), q])
    return np.array(rows)


def _kept(controls):
    """The controls whose centred columns each raise the rank of those kept before them."""
    centred = controls - controls.mean(axis=0)
    kept = []
    for j in range(controls.shape[1]):
        if np.linalg.matrix_rank(centred[:, kept + [j]]) > len(kept):
            kept.append(j)
    return controls[:, kept]


def _lstsq_fit(y, x):
    """Intercept of the least-squares fit of y on [1, x] and its stderr sqrt(RSS / (n - q - 1) / n)."""
    y = np.asarray(y)
    n, q = x.shape
    design = np.column_stack([np.ones(n), x])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    rss = float(np.sum((y - design @ coef) ** 2))
    return float(coef[0]), math.sqrt(rss / (n - q - 1) / n)


def _assert_same_fit(est, gamma, se):
    """``est`` matches a fit to 1e-12 relative; a stderr also within 1e-15 * gamma.

    Where the controls explain the samples exactly (a K = 1 chain with
    two_point omegas), the residuals are rounding errors of the samples,
    and both stderrs lie below that floor.
    """
    assert abs(est.gamma_hat - gamma) <= 1e-12 * abs(gamma)
    assert abs(est.stderr - se) <= 1e-12 * se + 1e-15 * abs(gamma)


def _recorded_fits(monkeypatch):
    """The (samples, controls) of every control-variate fit the estimators make."""
    fits = []
    fit = ensemble._control_fit

    def recording(y, x):
        fits.append((y.copy(), np.array(x)))
        return fit(y, x)

    monkeypatch.setattr(ensemble, "_control_fit", recording)
    return fits


@pytest.mark.parametrize("dist", ["uniform", "two_point", "truncated_normal"])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_direct_estimate_is_control_variate_fit(monkeypatch, K, dist):
    # the direct estimate is the intercept of the least-squares fit of its
    # samples on the root omegas, the children's generation means and the
    # Jensen control, and its stderr that fit's residual spread, here by
    # LAPACK on controls drawn edge by edge (the root omegas bit for bit;
    # the means sum in another order).  For K = 1 the Jensen control is 0
    # and is dropped.
    spec = TreeSpec(K=K, L=1.0, depth=4)
    z = complex(2.0, 0.05)
    models = [DisorderModel(lam=0.3, dist=dist, master_seed=5), DisorderModel(lam=0.1, master_seed=6)]
    fits = _recorded_fits(monkeypatch)
    ests = estimate_gamma(spec, models, z, 64, source="direct")
    assert len(fits) == len(models)
    for dm, est, (y, x) in zip(models, ests, fits):
        controls = _scalar_controls(spec, dm, z, 64)
        assert x.shape == (spec.depth + 2, 64)
        assert x[0].tobytes() == controls[:, 0].tobytes()
        np.testing.assert_allclose(x.T, controls, rtol=1e-13, atol=1e-16)
        assert _kept(controls).shape[1] == spec.depth + 2 - (K == 1)
        _assert_same_fit(est, *_lstsq_fit(y, _kept(controls)))


@pytest.mark.parametrize(
    "K,dist", [(2, "uniform"), (2, "two_point"), (2, "truncated_normal"), (3, "uniform")]
)
def test_jensen_control_has_mean_zero(K, dist):
    # Q - E Q, the direct fit's quadratic control, has mean 0: E Q =
    # lam**2 * C_J is the mean of a quarter of the population variance
    # over the children of lam * sum_g c_g * xbar_{k,g}, for iid omegas of
    # the dist's variance.  Generation means are redrawn per generation.
    spec = TreeSpec(K=K, L=1.0, depth=5)
    n = 4000
    dm = DisorderModel(lam=0.1, dist=dist, master_seed=3)
    reps = np.arange(n, dtype=np.uint64)[:, None]
    means = np.stack([
        np.stack([
            omega_for_generation(dm, K, g, reps, (k,)).mean(axis=1) for g in range(1, spec.depth + 1)
        ], axis=-1)
        for k in range(K)
    ], axis=1)
    (controls,) = ensemble._direct_controls(spec, [dm], Z_MID, [np.zeros(n)], means[None])
    q = controls[-1]
    se = q.std(ddof=1) / math.sqrt(n)
    e_q = dm.lam**2 * linear_response(Z_MID, K, 1.0, spec.depth, OMEGA_VARIANCE[dist])[1]
    assert abs(q.mean()) <= 3.0 * se
    # Q is far from 0 on average, so a wrong E Q would show
    assert e_q >= 10.0 * se


def test_direct_pass_peak_memory():
    # the direct pass adds the generation means to the kernel's block
    # budget: two models at depth 10 and 500 trees peak near 10 MiB, of
    # which the reduction of each block's omegas takes about 1
    spec = TreeSpec(K=2, L=1.0, depth=10)
    models = [DisorderModel(lam=lam, master_seed=1) for lam in (0.05, 0.1)]

    def run():
        fluctuation_report(spec, models, Z_MID, 500)

    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak <= 12


def test_direct_stderr_honest_at_weak_disorder(monkeypatch):
    # at lam = 0.05 and 0.1 the controls take out most of the samples'
    # spread (a variance ratio near 0.004 and 0.04): the reported stderr
    # is still the seed-to-seed spread of the estimate, and well below
    # the plain mean's stderr on the same samples
    spec = TreeSpec(K=2, L=1.0, depth=8)
    n = 500
    lams = (0.05, 0.1)
    fits = _recorded_fits(monkeypatch)
    ests = [
        estimate_gamma(spec, [DisorderModel(lam=lam, master_seed=s) for lam in lams], Z_MID, n,
                       source="direct")
        for s in range(1, 21)
    ]
    for i, bound in enumerate((0.6, 0.35)):
        spread = np.std([e[i].gamma_hat for e in ests], ddof=1)
        se = np.median([e[i].stderr for e in ests])
        plain = np.median([np.std(y, ddof=1) / math.sqrt(n) for y, _ in fits[i :: len(lams)]])
        assert 0.5 * se <= spread <= 2.0 * se
        assert se <= bound * plain


def test_direct_source_needs_k_plus_3_samples(monkeypatch, tmp_path, capsys):
    # the fit on depth + 2 controls keeps a residual degree of freedom
    # only from n = depth + 4 on; fewer samples fail before any tree is
    # solved
    def no_solve(*args, **kw):
        raise AssertionError("a tree was solved")

    monkeypatch.setattr(ensemble, "solve_root_R_batch", no_solve)
    for K in (1, 2, 3):
        for depth in (1, 3, 6):
            spec = TreeSpec(K=K, L=1.0, depth=depth)
            with pytest.raises(InsufficientSamplesError):
                estimate_gamma(spec, CLEAN, Z_MID, n=depth + 3, source="direct")
            with pytest.raises(InsufficientSamplesError):
                fluctuation_report(spec, [CLEAN], Z_MID, n=depth + 3)
    for n in ("4", "7"):
        assert cli.main(["fluctuation", "--n", n, "--set", "depth=4", "--out", str(tmp_path)]) == 1
        assert "wtree: error:" in capsys.readouterr().err
        assert not (tmp_path / "fluctuation.csv").exists()


@pytest.mark.parametrize("K,seeds", [(1, (13, 22)), (2, (23, 47)), (3, (333, 255))])
def test_direct_fit_drops_collinear_controls(monkeypatch, K, seeds):
    # at n = depth + 4, two_point controls (sums of +-1) are sometimes
    # collinear: the first seed of each pair gives a column in the span
    # of earlier ones, the second a constant one (and for K = 1 the
    # Jensen control is always 0).  Each such control is dropped, in
    # control order, and frees its degree of freedom, quietly.
    spec = TreeSpec(K=K, L=1.0, depth=3)
    n = spec.depth + 4
    fits = _recorded_fits(monkeypatch)
    for seed in seeds:
        dm = DisorderModel(lam=0.2, dist="two_point", master_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_gamma(spec, dm, Z_MID, n, source="direct")
            rep = fluctuation_report(spec, dm, Z_MID, n)
        assert math.isfinite(est.gamma_hat) and math.isfinite(est.stderr)
        assert (rep.gamma_hat, rep.gamma_stderr) == (est.gamma_hat, est.stderr)
        y, _ = fits[-1]
        controls = _scalar_controls(spec, dm, Z_MID, n)
        kept = _kept(controls)
        # a control other than the Jensen one is dropped
        assert kept.shape[1] < spec.depth + 1 + (K > 1)
        _assert_same_fit(est, *_lstsq_fit(y, kept))


@settings(max_examples=40, deadline=None)
@given(
    K=st.integers(1, 3),
    lam=st.floats(0.0, 1.0),
    dist=st.sampled_from(["uniform", "two_point", "truncated_normal"]),
    e=st.floats(-5.0, 10.0),
    log_eta=st.floats(-3.0, 3.0),
    source=st.sampled_from(["direct", "pool"]),
    master_seed=st.integers(0, 2**32),
)
def test_gamma_parts_nonnegative(K, lam, dist, e, log_eta, source, master_seed):
    # Warnings are errors in the body only: hypothesis's failure report
    # emits a DeprecationWarning that a filterwarnings mark would turn
    # into an internal error of the whole session.
    spec = TreeSpec(K=K, L=1.0, depth=3)
    dm = DisorderModel(lam=lam, dist=dist, master_seed=master_seed)
    z = complex(e, 10.0**log_eta)
    w = sqrt_upper(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, R_kids, lengths = _recorded_samples(spec, dm, z, 16, source, burn_in=20, pool_size=8)
        current, jensen, _ = ensemble._gamma_parts(R, R_kids, lengths, w)
    assert current.min() >= -1e-12
    assert jensen.min() >= -1e-12
    if K == 1:
        assert np.all(jensen == 0.0)


@pytest.mark.parametrize(
    "source,z,lam,n",
    [
        ("direct", complex(2.0, 0.05), 0.1, 256),
        ("pool", complex(2.0, 0.1), 0.2, 800),
        ("pool", complex(2.0, 0.01), 0.1, 800),
    ],
)
def test_estimate_gamma_spread_matches_stderr(source, z, lam, n):
    # the reported stderr is the seed-to-seed spread of the estimate
    ests = [
        estimate_gamma(SPEC6, DisorderModel(lam=lam, master_seed=s), z, n, source=source)
        for s in range(1, 21)
    ]
    spread = np.std([e.gamma_hat for e in ests], ddof=1)
    se = np.median([e.stderr for e in ests])
    assert 0.5 * se <= spread <= 2.0 * se


@pytest.mark.parametrize("lam", [0.05, 0.1])
def test_direct_estimate_matches_relaxed_reference(lam):
    # The direct source reads cut-seeded trees of depth 12, far shallower
    # than the relaxation time 1/(2*gamma0) ~ 133 generations at this z,
    # so a root and its children are not equally distributed.  Its
    # estimate must still agree, at the scale of its own stderr, with
    # the one-edge amplitude ratio averaged over a long relaxed pool, a
    # term with neither the current nor the Jensen part.  The tolerance
    # is about a third of the disorder's share gamma - gamma0 at lam 0.1.
    z = complex(2.0, 0.01)
    spec = TreeSpec(K=2, L=1.0, depth=12)
    est = estimate_gamma(spec, DisorderModel(lam=lam, master_seed=1), z, n=1000, source="direct")
    ref, ref_se = relaxed_gamma(2, 1.0, z, DisorderModel(lam=lam, master_seed=101))
    assert abs(est.gamma_hat - ref) <= 4.0 * math.hypot(est.stderr, ref_se)


def test_pool_estimate_matches_relaxed_reference():
    # independent pools burnt in for max(burn_in, _auto_burn_in) = 400
    # generations, three relaxation times at this z, against a pool relaxed
    # for five and read over 2,400 consecutive generations
    z = complex(2.0, 0.01)
    spec = TreeSpec(K=2, L=1.0, depth=4)
    est = estimate_gamma(spec, DisorderModel(lam=0.1, master_seed=1), z, n=10_000, source="pool")
    ref, ref_se = relaxed_gamma(2, 1.0, z, DisorderModel(lam=0.1, master_seed=101))
    assert abs(est.gamma_hat - ref) <= 4.0 * math.hypot(est.stderr, ref_se)


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
    for method in ("paired", "enumerate"):
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
            rep = check_jensen(x, K=K, a=a, method="paired")
            assert rep.passed
            assert rep.slack >= -3.0 * rep.stderr


def test_jensen_methods_agree():
    rng = np.random.default_rng(21)
    x = np.exp(0.4 * rng.standard_normal(300))
    en = check_jensen(x, K=2, a=0.25, method="enumerate")
    pa = check_jensen(x, K=2, a=0.25, method="paired")
    assert abs((en.lhs - en.e_log) - (pa.lhs - pa.e_log)) <= 4.0 * pa.stderr
    assert en.width_term == pa.width_term


@pytest.mark.parametrize("K", [2, 3])
def test_jensen_paired_reads_the_estimator_gap(K):
    # each root edge's K children are one tuple, so lhs is e_log plus the
    # mean Jensen part of the Lyapunov samples, bit for bit
    spec = TreeSpec(K=K, L=1.0, depth=4)
    models = [DisorderModel(lam=lam, master_seed=3) for lam in (0.1, 0.5)]
    p = as_point(complex(2.0, 0.05))
    R, R_kids, lengths, _ = ensemble._sample(spec, models, p, 64, "direct", 0, None)
    _, jensen, _ = ensemble._gamma_parts(R, R_kids, lengths, sqrt_upper(p))
    for b in range(len(models)):
        rep = check_jensen(R_kids[b].imag.ravel(), K, 0.25)
        gap = float(jensen[b].mean())
        assert gap > 0.0
        assert rep.lhs == rep.e_log + gap


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


@pytest.mark.parametrize("K", [1, 2, 3])
def test_jensen_paired_needs_two_tuples(K):
    x = np.exp(np.random.default_rng(2).standard_normal(2 * K))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InsufficientSamplesError):
            check_jensen(x[: 2 * K - 1], K=K, a=0.25)
        rep = check_jensen(x, K=K, a=0.25)
    # the two tuples are x[:K] and x[K:], taken in order
    gaps = [math.log(y.mean()) - float(np.log(y).mean()) for y in (x[:K], x[K:])]
    assert math.isclose(rep.lhs - rep.e_log, sum(gaps) / 2, rel_tol=1e-12, abs_tol=1e-15)


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
def test_fluctuation_validates_up_front(monkeypatch):
    # checked before any sampling, so no numpy warning escapes first
    def no_sampling(*args, **kw):
        raise AssertionError("a pool or tree was sampled")

    monkeypatch.setattr(ensemble, "solve_root_R_batch", no_sampling)
    monkeypatch.setattr(ensemble, "pool_init", no_sampling)
    with pytest.raises(InsufficientSamplesError):
        fluctuation_report(SPEC6, CLEAN, Z_MID, n=1)
    with pytest.raises(InsufficientSamplesError):
        fluctuation_report(SPEC6, CLEAN, Z_MID, n=1, source="pool", burn_in=5)
    with pytest.raises(ValidationError):
        fluctuation_report(SPEC6, CLEAN, complex(2.0, 0.0), n=100)
    for source in ("direct", "pool"):
        for a in (0.7, 0.0, -0.1, math.nan):
            with pytest.raises(ValidationError):
                fluctuation_report(SPEC6, CLEAN, Z_MID, n=100, a=a, source=source)
        for dm in ("uniform", None, [], [CLEAN, "uniform"]):
            with pytest.raises(ValidationError):
                fluctuation_report(SPEC6, dm, Z_MID, n=100, source=source)


def test_threads_validated_before_sampling(monkeypatch):
    def no_sampling(*args, **kw):
        raise AssertionError("a pool or tree was sampled")

    monkeypatch.setattr(ensemble, "solve_root_R_batch", no_sampling)
    monkeypatch.setattr(ensemble, "pool_init", no_sampling)
    for threads in (0, -2, 1.5):
        for source in ("direct", "pool"):
            with pytest.raises(ValidationError):
                estimate_gamma(SPEC6, CLEAN, Z_MID, n=64, source=source, threads=threads)
            with pytest.raises(ValidationError):
                fluctuation_report(SPEC6, CLEAN, Z_MID, n=64, source=source, threads=threads)
        with pytest.raises(ValidationError):
            stability_scan(SPEC6, CLEAN, [0.1], [1e-2], 1.5, 2.5, 0.1, 8, threads=threads)
    # sample counts follow the same rule: an int or numpy integer, not a bool
    for n in (10.5, 64.0, True):
        for source in ("direct", "pool"):
            with pytest.raises(ValidationError):
                estimate_gamma(SPEC6, CLEAN, Z_MID, n=n, source=source)
            with pytest.raises(ValidationError):
                fluctuation_report(SPEC6, CLEAN, Z_MID, n=n, source=source)
    for kw in ({"burn_in": 2.5}, {"burn_in": True}, {"pool_size": 8.0}, {"pool_size": True}):
        with pytest.raises(ValidationError):
            estimate_gamma(SPEC6, CLEAN, Z_MID, n=64, source="pool", **kw)
    with pytest.raises(ValidationError):
        fluctuation_report(SPEC6, CLEAN, Z_MID, n=64, source="pool", burn_in=2.5)
    # the direct source samples root edges with children
    flat = TreeSpec(K=2, L=1.0, depth=0)
    with pytest.raises(ValidationError):
        estimate_gamma(flat, CLEAN, Z_MID, n=64, source="direct")
    with pytest.raises(ValidationError):
        fluctuation_report(flat, CLEAN, Z_MID, n=64, source="direct")
    monkeypatch.undo()
    est = estimate_gamma(SPEC6, CLEAN, Z_MID, n=np.int64(16), source="pool", burn_in=np.int32(2))
    assert est.n == 16


@pytest.mark.parametrize("source", ["direct", "pool"])
def test_fluctuation_reads_estimator_samples(source):
    # the estimators' sampling pass, at the default pool size
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.1, master_seed=2)
    n = 400
    rep = fluctuation_report(spec, dm, Z_MID, n, source=source, burn_in=20)
    est = estimate_gamma(spec, dm, Z_MID, n, source=source, burn_in=20)
    assert est.n == rep.n == n
    assert rep.gamma_hat == est.gamma_hat
    assert rep.gamma_stderr == est.stderr


@pytest.mark.parametrize("source", ["direct", "pool"])
def test_stacked_estimators_equal_lone_calls(source):
    # a model list gives the list of lone results; the direct source
    # solves each tree once for all models
    spec = TreeSpec(K=3, L=1.0, depth=4)
    z = complex(2.0, 0.05)
    models = [
        DisorderModel(lam=0.2, dist="truncated_normal", master_seed=3),
        DisorderModel(lam=0.0, dist="truncated_normal", master_seed=3),
        DisorderModel(lam=0.1, dist="uniform", master_seed=3),
        DisorderModel(lam=0.1, dist="two_point", master_seed=8),
    ]
    kw = dict(source=source, burn_in=10)
    reports = fluctuation_report(spec, models, z, 96, **kw)
    assert reports == [fluctuation_report(spec, dm, z, 96, **kw) for dm in models]
    assert [r.lam for r in reports] == [dm.lam for dm in models]
    kw["pool_size"] = 16
    estimates = estimate_gamma(spec, models, z, 64, **kw)
    assert estimates == [estimate_gamma(spec, dm, z, 64, **kw) for dm in models]
    # a stack of 2 x 10,000 samples passes numpy's 256 KiB threshold for
    # reusing temporaries, where one row alone does not
    big = TreeSpec(K=2, L=1.0, depth=1)
    kw = dict(source=source, burn_in=10)
    reports = fluctuation_report(big, models[:2], z, 10000, **kw)
    assert reports == [fluctuation_report(big, dm, z, 10000, **kw) for dm in models[:2]]


@pytest.mark.parametrize("source", ["direct", "pool"])
def test_fluctuation_at_large_eta(source):
    # |psi(l)/psi(0)|^2 underflows to 0 at eta 1e6; its width is read off
    # the log ratios instead of failing on the zeros
    spec = TreeSpec(K=2, L=1.0, depth=4)
    dm = DisorderModel(lam=0.1, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fluctuation_report(spec, dm, complex(2.0, 1e6), 64, source=source, burn_in=5)
    assert 0.0 <= rep.delta_im < 1.0
    assert 0.0 <= rep.delta_mod <= 1.0
    assert rep.gamma_hat >= 0.0 and rep.bound1_ok and rep.bound2_ok


def test_log_width_matches_quantile_width():
    # where the squares are representable, the log route gives their bits
    rng = np.random.default_rng(5)
    for n in (2, 3, 64, 1001):
        logs = rng.normal(-3.0, 2.0, n)
        for a in (0.5, 0.25, 0.1):
            assert ensemble._log_width(logs, a) == quantile_width(np.exp(logs), a).delta
    logs = np.array([-2000.0, -1500.0, -1400.0, -1000.0])
    assert ensemble._log_width(logs, 0.25) == -math.expm1(-1500.0 + 1400.0)
    with pytest.raises(ValidationError):
        ensemble._log_width(np.array([0.0, math.nan]), 0.25)


def test_stability_scan_validates_n():
    for n in (2.5, True, "8"):
        with pytest.raises(ValidationError):
            stability_scan(SPEC6, CLEAN, [0.1], [1e-2], 1.5, 2.5, 0.1, n)
    with pytest.raises(ValidationError):
        stability_scan(SPEC6, [CLEAN], [0.1], [1e-2], 1.5, 2.5, 0.1, 8)


def test_pool_init_validates_size():
    for size in (2.5, True, np.float64(4.0), None):
        with pytest.raises(ValidationError):
            pool_init(SPEC6, CLEAN, Z_MID, size=size)


def test_jensen_counts_validated():
    x = np.exp(np.random.default_rng(2).standard_normal(30))
    for kw in (dict(K=1.5), dict(K=True)):
        with pytest.raises(ValidationError):
            check_jensen(x, a=0.25, **kw)


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


def test_stability_scan_seed_mode():
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1, master_seed=4)
    kw = dict(lambdas=[0.1], etas=[1e-2], e_min=1.5, e_max=2.5, eps=0.05, n=200)
    (cell,) = stability_scan(spec, dm, **kw)
    # the same cell solved directly with the far ends at the clean cut seed
    idx = np.arange(200, dtype=np.uint64)
    energies = 1.5 + uniform01(hash_words(4, DOMAIN_SCAN_ENERGY, 0, idx))
    seeds = _cut_seed(fixed_point_batch(energies, 0.01, 2, 1.0).m, 2)
    R = solve_root_R_batch(spec, dm, energies + 0.01j, seeds, idx)
    phi = fixed_point_batch(energies, 0.0, 2, 1.0).phi
    assert cell.exceedance == float(np.mean(np.abs(R - phi) > 0.05))
    # the seed matters at this depth: far ends at m = 0 stray differently
    R0 = solve_root_R_batch(spec, dm, energies + 0.01j, 0j, idx)
    assert cell.exceedance != float(np.mean(np.abs(R0 - phi) > 0.05))


def test_stability_scan_cells_equal_lone_cells():
    # cells share energies, replicas and trees: each is its lone scan, bit for bit
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.0, master_seed=3)
    kw = dict(e_min=1.5, e_max=2.5, eps=0.1, n=300)
    lambdas, etas = [0.2, 0.05], [1e-2, 1e-3]
    for threads in (1, 3):
        cells = stability_scan(spec, dm, lambdas, etas, threads=threads, **kw)
        lone = [stability_scan(spec, dm, [lam], [eta], **kw)[0] for lam in lambdas for eta in etas]
        assert cells == lone


def test_stability_scan_one_kernel_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve_root_R_batch(*args, **kwargs)

    monkeypatch.setattr(ensemble, "solve_root_R_batch", counted)
    spec = TreeSpec(K=2, L=1.0, depth=4)
    cells = stability_scan(spec, CLEAN, [0.2, 0.1, 0.05], [1e-2, 1e-3], 1.5, 2.5, 0.1, 50)
    assert len(cells) == 6
    assert len(calls) == 1
    # an empty grid has no cell and makes no call
    assert stability_scan(spec, CLEAN, [], [1e-2], 1.5, 2.5, 0.1, 50) == []
    assert stability_scan(spec, CLEAN, [0.1], [], 1.5, 2.5, 0.1, 50) == []
    assert len(calls) == 1


def test_stability_scan_draws_one_tree_for_all_lambdas(monkeypatch):
    # omega does not depend on lam: a one-eta scan of three lambdas draws
    # the omega words of one lone-lambda scan
    words = []
    omega = wtree.engine.omega_for_generation

    def counting(dm, K, g, replicas, prefix=()):
        out = omega(dm, K, g, replicas, prefix)
        words.append(out.size)
        return out

    monkeypatch.setattr(wtree.engine, "omega_for_generation", counting)
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.0, master_seed=2)
    stability_scan(spec, dm, [0.1], [1e-3], 1.5, 2.5, 0.1, 200)
    lone = sum(words)
    words.clear()
    stability_scan(spec, dm, [0.2, 0.1, 0.05], [1e-3], 1.5, 2.5, 0.1, 200)
    assert sum(words) == lone == 200 * spec.edge_count()


def test_stability_scan_validation(monkeypatch):
    # every cell is checked before the first solve, with no numpy warning
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return solve_root_R_batch(*args, **kwargs)

    monkeypatch.setattr(ensemble, "solve_root_R_batch", counted)
    spec = TreeSpec(K=2, L=1.0, depth=4)
    grid = dict(lambdas=[0.1], etas=[1e-2], e_min=1.5, e_max=2.5, eps=0.1, n=100)
    bad = [
        dict(e_min=0.0),
        dict(e_min=2.5, e_max=1.5),
        dict(e_min=math.nan),
        dict(e_min=-math.inf),
        dict(e_max=math.nan),
        dict(e_max=math.inf),
        dict(etas=[0.0]),
        dict(etas=[1e-3, -1.0]),
        dict(etas=[1e-3, math.nan]),
        dict(etas=[1e-3, math.inf]),
        dict(lambdas=[0.1, 2.0]),
        dict(lambdas=[0.1, math.nan]),
        dict(eps=0.0),
        dict(eps=math.nan),
        dict(eps=math.inf),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kw in bad:
            with pytest.raises(ValidationError):
                stability_scan(spec, CLEAN, **{**grid, **kw})
        with pytest.raises(InsufficientSamplesError):
            stability_scan(spec, CLEAN, **{**grid, "n": 1})
    assert solves == []
