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
    edge_length,
    resample_omega,
)
from wtree.graphmodel import (
    _TN_HI,
    _TN_LO,
    _TN_Z,
    DISTS,
    DOMAIN_EDGE,
    OMEGA_VARIANCE,
    _BROADCAST_STATES,
    _expand_digits,
    hash_words,
    omega_for_generation,
    omega_from_uniform,
    uniform01,
)

# mean and variance of each omega distribution; the truncated normal's
# variance is 1 - 2 phi(1) / (Phi(1) - Phi(-1))
_MOMENTS = {
    "uniform": (0.0, 1.0 / 3.0),
    "two_point": (0.0, 1.0),
    "truncated_normal": (0.0, 1.0 - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi) / _TN_Z),
}


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


def test_hash_words_seed_array_equals_scalar_chains():
    # an array of seeds broadcasts like the words; each element is the
    # scalar chain of its own seed, at both ends of the 64-bit range
    seeds = np.array([0, 1, 9, 2**63, 2**64 - 1], dtype=np.uint64)
    before = seeds.copy()
    alone = hash_words(seeds)
    words = hash_words(seeds, DOMAIN_EDGE, 3, 1)
    grid = hash_words(seeds[:, None], DOMAIN_EDGE, np.arange(3, dtype=np.uint64), 7)
    assert np.array_equal(seeds, before)
    assert grid.shape == (5, 3) and grid.dtype == np.uint64
    for k, s in enumerate(int(s) for s in seeds):
        assert int(alone[k]) == hash_words(s)
        assert int(words[k]) == hash_words(s, DOMAIN_EDGE, 3, 1)
        for i in range(3):
            assert int(grid[k, i]) == hash_words(s, DOMAIN_EDGE, i, 7)


def test_uniform01_range():
    h = hash_words(5, np.arange(10_000, dtype=np.uint64))
    u = uniform01(h)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


@pytest.mark.parametrize("dist", sorted(DISTS))
def test_omega_bounded(dist):
    u = uniform01(hash_words(3, np.arange(50_000, dtype=np.uint64)))
    om = omega_from_uniform(dist, u)
    assert np.all(np.abs(om) <= 1.0)


@pytest.mark.parametrize("dist", sorted(DISTS))
def test_omega_moments(dist):
    n = 400_000
    u = uniform01(hash_words(12, np.arange(n, dtype=np.uint64)))
    om = omega_from_uniform(dist, u)
    mean, var = _MOMENTS[dist]
    # 5 standard errors on each moment
    se_mean = math.sqrt(var / n)
    assert abs(om.mean() - mean) < 5 * se_mean
    m4 = np.mean((om - mean) ** 4)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / n)
    # the empirical variance carries an O(1/n) bias from the squared
    # sample mean, which dominates when the fourth cumulant vanishes
    assert abs(om.var() - var) < 5 * se_var + 10.0 / n
    # the library's table, which centres the direct fit's Jensen control
    assert set(OMEGA_VARIANCE) == set(DISTS)
    assert abs(om.var() - OMEGA_VARIANCE[dist]) < 5 * se_var + 10.0 / n


def test_two_point_support():
    u = uniform01(hash_words(4, np.arange(1000, dtype=np.uint64)))
    om = omega_from_uniform("two_point", u)
    assert set(np.unique(om)) == {-1.0, 1.0}


def test_omega_unknown_dist():
    with pytest.raises(ValidationError):
        omega_from_uniform("gaussian", 0.5)


def test_omega_scalar_matches_array():
    for dist in sorted(DISTS):
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
@pytest.mark.parametrize("dist", sorted(DISTS))
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


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("dist", sorted(DISTS))
def test_omega_for_generation_range_is_concatenation(K, dist):
    # a range of generations draws, bit for bit, the one-generation draws
    # laid end to end, whatever the prefix, replicas and first generation
    dm = DisorderModel(lam=0.1, dist=dist, master_seed=31 + K)
    column = np.array([[4], [2**64 - 1], [0]], dtype=np.uint64)
    for p in range(3):
        prefix = tuple((j + 1) % K for j in range(p))
        for replicas in (6, column):
            for start in range(p, p + 3):
                for stop in range(start + 1, p + 6):
                    block = omega_for_generation(dm, K, range(start, stop), replicas, prefix)
                    one_by_one = np.concatenate(
                        [
                            omega_for_generation(dm, K, g, replicas, prefix)
                            for g in range(start, stop)
                        ],
                        axis=-1,
                    )
                    assert block.shape == one_by_one.shape
                    assert block.tobytes() == one_by_one.tobytes()


def test_omega_for_generation_rejects_bad_ranges():
    dm = DisorderModel(lam=0.2, dist="uniform", master_seed=7)
    for g, prefix in [
        (range(3, 3), ()),  # empty
        (range(5, 2, -1), ()),  # empty, and a step other than 1
        (range(1, 6, 2), ()),
        (range(1, 4), (0, 1)),  # starts above the subtree's top edge
    ]:
        with pytest.raises(ValidationError):
            omega_for_generation(dm, 2, g, 5, prefix)


@pytest.mark.parametrize("K", [1, 2, 3])
def test_expand_digits_matches_trailing_word(K):
    gens = np.arange(5, 9, dtype=np.uint64).reshape(-1, 1)
    members = np.arange(6, dtype=np.uint64)
    h = hash_words(3, DOMAIN_EDGE, gens, members)
    expanded = _expand_digits(h, K)
    slots = np.arange(K, dtype=np.uint64)
    trailing = hash_words(3, DOMAIN_EDGE, gens[:, :, None], members[:, None], slots)
    assert expanded.shape == (4, 6, K) and expanded.tobytes() == trailing.tobytes()


@pytest.mark.parametrize("K", [1, 2, 3])
def test_expand_digits_paths_agree(K):
    # small arrays take one broadcast XOR, large ones K column writes: the
    # states on either side of the switch are the trailing-word hash
    for members in (_BROADCAST_STATES - 1, _BROADCAST_STATES, _BROADCAST_STATES + 1, 700):
        h = hash_words(5, DOMAIN_EDGE, np.arange(members, dtype=np.uint64))
        trailing = hash_words(
            5, DOMAIN_EDGE, np.arange(members, dtype=np.uint64)[:, None], np.arange(K, dtype=np.uint64)
        )
        assert _expand_digits(h, K).tobytes() == trailing.tobytes()


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


def test_uniform_transforms_leave_inputs_unchanged():
    h = hash_words(3, DOMAIN_EDGE, np.arange(64, dtype=np.uint64))
    h_before = h.copy()
    u = uniform01(h)
    assert h.tobytes() == h_before.tobytes()
    assert u.tolist() == [uniform01(int(x)) for x in h]
    u_before = u.copy()
    for dist in DISTS:
        omega = omega_from_uniform(dist, u)
        assert u.tobytes() == u_before.tobytes()
        assert omega.tolist() == [omega_from_uniform(dist, float(x)) for x in u]


def test_truncated_normal_bounds_match_ndtr():
    from scipy.special import ndtr

    assert _TN_LO == float(ndtr(-1.0))
    assert _TN_HI == float(ndtr(1.0))


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
        TreeSpec(K=2, L=math.inf, depth=2)
    with pytest.raises(ValidationError):
        TreeSpec(K=2, L=1.0, depth=-1)
    with pytest.raises(ValidationError):
        TreeSpec(K=2, L=1.0, depth=2, alpha=math.pi)


@pytest.mark.parametrize(
    "K,depth",
    [(True, 2), (2, True), (True, True), (2.0, 2), (2, 3.0), (np.float64(2), 2), ("2", 2)],
)
def test_tree_spec_rejects_non_integers(K, depth):
    # a bool once built a one-edge half line, and a float an odd tree
    with pytest.raises(ValidationError, match="K|depth"):
        TreeSpec(K=K, L=1.0, depth=depth)


def test_tree_spec_stores_numpy_integers_as_int():
    # numpy integers are valid and stored as python ints, so K**n and
    # edge_count() cannot wrap in int64
    spec = TreeSpec(K=np.int64(2), L=1.0, depth=np.uint8(70))
    assert type(spec.K) is int and type(spec.depth) is int
    assert spec == TreeSpec(K=2, L=1.0, depth=70)
    assert spec.edge_count() == 2**71 - 1


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


@pytest.mark.parametrize("bad", [2.7, 2.0, True, False, -1, 2**64, np.float64(3.0), "3", None])
def test_master_seed_is_a_64_bit_integer(bad):
    # 2.7 was once stored as 2.7 and hashed as seed 2
    with pytest.raises(ValidationError, match="master_seed") as info:
        DisorderModel(master_seed=bad)
    assert repr(bad) in str(info.value)


def test_master_seed_stored_as_int():
    for seed in (np.uint64(2**64 - 1), np.int64(7), 0, 2**64 - 1):
        dm = DisorderModel(lam=0.2, master_seed=seed)
        assert type(dm.master_seed) is int and dm.master_seed == int(seed)
        assert dm == DisorderModel(lam=0.2, master_seed=int(seed))




def test_edge_address_rejects_non_integer_digits():
    # int() would truncate 1.9 and accept '1' and True, so (1.9,) would
    # silently address edge (1,)
    assert EdgeAddress((np.int64(1), 0, np.uint8(1))).path == (1, 0, 1)
    assert all(type(d) is int for d in EdgeAddress(np.array([1, 0])).path)
    for path in (("1", 0), (0.5,), (1.9,), (True, 1), (1, None), 5, None):
        with pytest.raises(ValidationError):
            EdgeAddress(path)
    with pytest.raises(ValidationError):
        ROOT_EDGE.child(0.5)


@pytest.mark.parametrize("g0,prefix", [(0, ()), (3, (1, 0)), (5, (0, 1, 1, 0, 1))])
def test_one_row_omega_mixes_once_per_level(g0, prefix, monkeypatch):
    # a one-row draw hashes its chains in python ints, then makes one
    # array mix per local level it expands: n for local level n
    import wtree.graphmodel as gm

    calls = []
    mix = gm._mix_np

    def counting(x):
        calls.append(x.size)
        return mix(x)

    monkeypatch.setattr(gm, "_mix_np", counting)
    dm = DisorderModel(lam=0.1, master_seed=2)
    depth = 7
    for K in (1, 2, 3):
        calls.clear()
        omega_for_generation(dm, K, range(g0, depth + 1), np.array([[9]]), prefix)
        assert len(calls) == depth - len(prefix)
        calls.clear()
        omega_for_generation(dm, K, depth, 9, prefix)
        assert len(calls) == depth - len(prefix)
