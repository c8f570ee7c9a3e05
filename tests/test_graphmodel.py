import math

import numpy as np
import pytest

from wtree import (
    AddressRangeError,
    DisorderModel,
    EdgeAddress,
    ROOT_EDGE,
    TreeSpec,
    ValidationError,
    VertexBC,
    edge_length,
    resample_omega,
)
from wtree.graphmodel import (
    DIST_MOMENTS,
    DOMAIN_EDGE,
    hash_words,
    omega_for_generation,
    omega_from_uniform,
    uniform01,
)


def test_hash_words_deterministic():
    a = hash_words(1, DOMAIN_EDGE, 0, 2, 0, 1)
    b = hash_words(1, DOMAIN_EDGE, 0, 2, 0, 1)
    assert a == b
    assert hash_words(1, DOMAIN_EDGE, 1, 2, 0, 1) != a
    assert hash_words(2, DOMAIN_EDGE, 0, 2, 0, 1) != a


def test_hash_words_scalar_vs_array_bit_identical():
    reps = np.arange(17, dtype=np.uint64)
    arr = hash_words(9, DOMAIN_EDGE, reps, 3, 1)
    for i in range(17):
        assert int(arr[i]) == hash_words(9, DOMAIN_EDGE, i, 3, 1)


def test_uniform01_range():
    h = hash_words(5, np.arange(10_000, dtype=np.uint64))
    u = uniform01(h)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


@pytest.mark.parametrize("dist", sorted(DIST_MOMENTS))
def test_omega_bounded(dist):
    u = uniform01(hash_words(3, np.arange(50_000, dtype=np.uint64)))
    om = omega_from_uniform(dist, u)
    assert np.all(np.abs(om) <= 1.0)


@pytest.mark.parametrize("dist", sorted(DIST_MOMENTS))
def test_omega_moments(dist):
    n = 400_000
    u = uniform01(hash_words(12, np.arange(n, dtype=np.uint64)))
    om = omega_from_uniform(dist, u)
    mean, var = DIST_MOMENTS[dist]
    # 5 standard errors on each moment
    se_mean = math.sqrt(var / n)
    assert abs(om.mean() - mean) < 5 * se_mean
    m4 = np.mean((om - mean) ** 4)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    # the empirical variance carries an O(1/n) bias from the squared
    # sample mean, which dominates when the fourth cumulant vanishes
    assert abs(om.var() - var) < 5 * se_var + 10.0 / n


def test_two_point_support():
    u = uniform01(hash_words(4, np.arange(1000, dtype=np.uint64)))
    om = omega_from_uniform("two_point", u)
    assert set(np.unique(om)) == {-1.0, 1.0}


def test_omega_unknown_dist():
    with pytest.raises(ValidationError):
        omega_from_uniform("gaussian", 0.5)


def test_omega_scalar_matches_array():
    for dist in sorted(DIST_MOMENTS):
        u = uniform01(hash_words(8, np.arange(64, dtype=np.uint64)))
        arr = omega_from_uniform(dist, u)
        for i in range(64):
            assert float(arr[i]) == omega_from_uniform(dist, float(u[i]))


def test_resample_omega_deterministic_and_addressed():
    dm = DisorderModel(lam=0.3, dist="uniform", master_seed=42)
    a = EdgeAddress((0, 1))
    assert resample_omega(dm, a) == resample_omega(dm, a)
    assert resample_omega(dm, a) != resample_omega(dm, EdgeAddress((1, 0)))
    assert resample_omega(dm, a, replica=0) != resample_omega(dm, a, replica=1)


def test_omega_for_generation_matches_scalar():
    dm = DisorderModel(lam=0.2, dist="uniform", master_seed=7)
    K, g = 3, 3
    block = omega_for_generation(dm, K, g, 5)
    assert block.shape == (K**g,)
    for i in range(K**g):
        path = [(i // K ** (g - 1 - j)) % K for j in range(g)]
        assert float(block[i]) == resample_omega(dm, EdgeAddress(path), replica=5)
    # a subtree below a non-empty prefix draws the same omegas edge by edge
    for prefix in [(2,), (0, 1), (1, 2, 0)]:
        n = g - len(prefix)
        sub = omega_for_generation(dm, K, g, 5, prefix)
        assert sub.shape == (K**n,)
        for i in range(K**n):
            path = list(prefix) + [(i // K ** (n - 1 - j)) % K for j in range(n)]
            assert float(sub[i]) == resample_omega(dm, EdgeAddress(path), replica=5)
    reps = np.arange(3, dtype=np.uint64).reshape(-1, 1)
    rows = omega_for_generation(dm, K, 4, reps, (1, 0))
    for r in range(3):
        for i in range(K**2):
            path = (1, 0, i // K, i % K)
            assert float(rows[r, i]) == resample_omega(dm, EdgeAddress(path), replica=r)
    with pytest.raises(ValidationError):
        omega_for_generation(dm, K, 1, 5, (0, 1))


# resample_omega values at fixed (seed, dist, path, replica), recorded from
# the digit-by-digit hash: any refactor of the counter stream must keep them.
_PINNED_OMEGAS = [
    (1, "uniform", (), 0, "0x1.bd7a90021efe8p-1"),
    (42, "uniform", (0, 1), 0, "-0x1.00b029f699300p-2"),
    (42, "uniform", (0, 1), 7, "-0x1.0584cb51c2508p-1"),
    (7, "two_point", (2, 0, 1), 3, "0x1.0000000000000p+0"),
    (2**64 - 1, "truncated_normal", (1, 1, 0, 1, 0), 11, "-0x1.d333b12eb3479p-2"),
    (123456789, "truncated_normal", (), 2**40, "-0x1.2cc5c61897141p-2"),
    (5, "uniform", (3, 2, 1, 0, 3, 2, 1), 1, "0x1.683f00c30fa30p-3"),
]


@pytest.mark.parametrize("seed,dist,path,replica,expected", _PINNED_OMEGAS)
def test_resample_omega_pinned(seed, dist, path, replica, expected):
    dm = DisorderModel(lam=0.1, dist=dist, master_seed=seed)
    assert resample_omega(dm, EdgeAddress(path), replica) == float.fromhex(expected)
    K = max(path, default=0) + 1
    block = omega_for_generation(dm, K, len(path), replica, path)
    assert block.shape == (1,) and float(block[0]) == float.fromhex(expected)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("dist", sorted(DIST_MOMENTS))
def test_omega_for_generation_sweep(K, dist):
    # every generation g <= 7, one prefix of every length, scalar and
    # column replicas, against resample_omega edge by edge
    dm = DisorderModel(lam=0.1, dist=dist, master_seed=2024 + K)
    reps = np.array([[9], [2**63 + 5]], dtype=np.uint64)
    for g in range(8):
        for p in range(g + 1):
            prefix = tuple((j * 7 + g) % K for j in range(p))
            n = g - p
            paths = [
                prefix + tuple((i // K ** (n - 1 - j)) % K for j in range(n))
                for i in range(K**n)
            ]
            scalar = omega_for_generation(dm, K, g, 9, prefix)
            column = omega_for_generation(dm, K, g, reps, prefix)
            assert scalar.shape == (K**n,) and column.shape == (2, K**n)
            for i, path in enumerate(paths):
                addr = EdgeAddress(path)
                assert float(scalar[i]) == float(column[0, i]) == resample_omega(dm, addr, 9)
                assert float(column[1, i]) == resample_omega(dm, addr, 2**63 + 5)


def test_omega_for_generation_rejects_replica_shapes():
    dm = DisorderModel(lam=0.2, dist="uniform", master_seed=7)
    for bad in [
        np.arange(4, dtype=np.uint64),  # 1-D of length K**n would pair replica i with edge i
        np.arange(3, dtype=np.uint64),
        np.arange(4, dtype=np.int64).reshape(2, 2),
        np.arange(4, dtype=np.uint64).reshape(1, 4),
        np.zeros((2, 1, 1), dtype=np.uint64),
        np.zeros((2, 1), dtype=np.float64),
    ]:
        with pytest.raises(ValidationError):
            omega_for_generation(dm, 2, 2, bad)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_hash_leaves_caller_arrays_unchanged(dtype):
    words = np.arange(6, dtype=dtype)
    later = np.arange(6, 12, dtype=dtype)
    h = hash_words(3, DOMAIN_EDGE, words, 2, later)
    h2 = hash_words(3, words, later)
    assert np.array_equal(words, np.arange(6, dtype=dtype))
    assert np.array_equal(later, np.arange(6, 12, dtype=dtype))
    for i in range(6):
        assert int(h[i]) == hash_words(3, DOMAIN_EDGE, i, 2, 6 + i)
        assert int(h2[i]) == hash_words(3, i, 6 + i)
    dm = DisorderModel(lam=0.2, dist="uniform", master_seed=7)
    reps = np.arange(4, dtype=dtype).reshape(-1, 1)
    before = reps.copy()
    for g, prefix in [(0, ()), (3, ()), (3, (1,)), (3, (1, 0, 1))]:
        omega_for_generation(dm, 2, g, reps, prefix)
        assert reps.dtype == dtype and np.array_equal(reps, before)


def test_omega_for_generation_replica_block():
    dm = DisorderModel(lam=0.2, dist="uniform", master_seed=7)
    reps = np.arange(4, dtype=np.uint64).reshape(-1, 1)
    block = omega_for_generation(dm, 2, 2, reps)
    assert block.shape == (4, 4)
    for r in range(4):
        row = omega_for_generation(dm, 2, 2, r)
        assert np.array_equal(block[r], row)


def test_edge_length_clean_and_bounds():
    spec = TreeSpec(K=2, L=1.5, depth=4)
    clean = DisorderModel(lam=0.0)
    assert edge_length(spec, clean, ROOT_EDGE) == 1.5
    dm = DisorderModel(lam=0.4, dist="uniform", master_seed=3)
    for path in [(), (0,), (1, 1), (0, 1, 0)]:
        le = edge_length(spec, dm, EdgeAddress(path))
        assert 1.5 * math.exp(-0.4) <= le <= 1.5 * math.exp(0.4)


def test_edge_length_two_point_support():
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1, dist="two_point", master_seed=1)
    vals = {
        edge_length(spec, dm, EdgeAddress(p))
        for p in [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    }
    assert vals <= {math.exp(-0.1), math.exp(0.1)}
    assert len(vals) == 2


def test_edge_length_address_validation():
    spec = TreeSpec(K=2, L=1.0, depth=2)
    dm = DisorderModel()
    with pytest.raises(AddressRangeError):
        edge_length(spec, dm, EdgeAddress((0, 0, 0)))
    with pytest.raises(AddressRangeError):
        edge_length(spec, dm, EdgeAddress((2,)))


def test_edge_address():
    a = EdgeAddress((0, 1))
    assert a.generation == 2
    assert a.child(1).path == (0, 1, 1)
    assert ROOT_EDGE.generation == 0


def test_tree_spec_validation():
    with pytest.raises(ValidationError):
        TreeSpec(K=0, L=1.0, depth=2)
    with pytest.raises(ValidationError):
        TreeSpec(K=2, L=0.0, depth=2)
    with pytest.raises(ValidationError):
        TreeSpec(K=2, L=1.0, depth=-1)
    with pytest.raises(ValidationError):
        TreeSpec(K=2, L=1.0, depth=2, alpha=math.pi)


def test_tree_spec_edge_count():
    assert TreeSpec(K=2, L=1.0, depth=3).edge_count() == 15
    assert TreeSpec(K=1, L=1.0, depth=5).edge_count() == 6
    assert TreeSpec(K=3, L=1.0, depth=0).edge_count() == 1


def test_disorder_validation():
    with pytest.raises(ValidationError):
        DisorderModel(lam=1.5)
    with pytest.raises(ValidationError):
        DisorderModel(lam=-0.1)
    with pytest.raises(ValidationError):
        DisorderModel(dist="gauss")
    with pytest.raises(ValidationError):
        DisorderModel(master_seed=2**64)


def test_vertex_bc():
    assert VertexBC().is_kirchhoff
    assert VertexBC(kind="symmetric", beta_v=0.0).is_kirchhoff
    assert not VertexBC(kind="symmetric", beta_v=0.3).is_kirchhoff
    with pytest.raises(ValidationError):
        VertexBC(kind="kirchhoff", beta_v=0.3)
    with pytest.raises(ValidationError):
        VertexBC(kind="robin")
