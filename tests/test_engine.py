import cmath
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtree import (
    BoundaryPointError,
    BudgetExceededError,
    DisorderModel,
    EdgeAddress,
    HalfPlanePoint,
    ROOT_EDGE,
    RowDegeneracyError,
    SingularMergeError,
    SingularTransformError,
    TreeSpec,
    ValidationError,
    WT_INFINITY,
    as_point,
    boundary_extrapolate,
    cut_seed_disk,
    edge_length,
    edge_step_m,
    fixed_point_R,
    gamma_clean,
    m_from_r,
    r_from_m,
    solve_R_minus,
    solve_edge_R,
    solve_root_R,
    solve_root_R_batch,
    spectral_density,
    sqrt_upper,
    stationary_disk,
    tree_profile,
    vertex_merge_m,
    wt_bound,
)
import wtree.engine
from wtree.engine import _eta_intercept, _merge_sum, _merge_terms, _sibling_sum
from wtree.errors import NumericalDegeneracyError
from wtree.graphmodel import omega_for_generation
from oracles import edge_step_R


def test_sqrt_upper_interior():
    w = sqrt_upper(complex(0.0, 2.0))
    assert abs(w - complex(1.0, 1.0)) < 1e-14
    assert sqrt_upper(complex(-4.0, 0.0004)).imag > 1.9


def test_sqrt_upper_boundary():
    assert abs(sqrt_upper(complex(4.0, 0.0)) - 2.0) < 1e-15
    with pytest.raises(BoundaryPointError):
        sqrt_upper(complex(-1.0, 0.0))
    with pytest.raises(BoundaryPointError):
        sqrt_upper(complex(0.0, 0.0))


def test_as_point():
    p = as_point(complex(2.0, 0.01))
    assert isinstance(p, HalfPlanePoint)
    assert p.z == complex(2.0, 0.01)
    assert not p.boundary_mode
    q = as_point(HalfPlanePoint(E=3.0))
    assert q.boundary_mode and q.z == complex(3.0, 0.0)
    with pytest.raises(ValidationError):
        as_point(complex(2.0, -0.01))


def test_disk_transform_round_trip():
    z = complex(2.0, 0.1)
    for r in [complex(0.3, 0.8), complex(-2.0, 0.05), complex(0.0, 5.0)]:
        m = m_from_r(r, z)
        assert abs(m) < 1.0
        assert abs(r_from_m(m, z) - r) < 1e-12


def test_disk_transform_poles():
    z = complex(2.0, 0.1)
    w = sqrt_upper(z)
    with pytest.raises(SingularTransformError):
        m_from_r(-1j * w, z)
    with pytest.raises(SingularTransformError):
        r_from_m(complex(1.0, 0.0), z)
    # the Dirichlet pole R = infinity is the disk point m = 1
    for zz in (z, complex(-1.0, 3.0), HalfPlanePoint(E=2.0)):
        assert m_from_r(WT_INFINITY, zz) == complex(1.0, 0.0)


def test_edge_step_m_contraction_and_semigroup():
    z = complex(2.0, 0.3)
    w = sqrt_upper(z)
    m = complex(0.4, -0.2)
    out = edge_step_m(m, 1.7, z)
    assert abs(abs(out) - abs(m) * math.exp(-2 * 1.7 * w.imag)) < 1e-14
    two = edge_step_m(edge_step_m(m, 0.6, z), 1.1, z)
    assert abs(two - out) < 1e-14
    assert edge_step_m(m, 0.0, z) == m


def test_vertex_merge_m_examples():
    # all children at m = 0 (R = iw): zeta = K, m = (K-1)/(K+1)
    z = complex(2.0, 0.1)
    assert abs(vertex_merge_m([0j, 0j], z) - (1.0 / 3.0)) < 1e-15
    assert abs(vertex_merge_m([0j, 0j, 0j], z) - 0.5) < 1e-15


def test_vertex_merge_matches_additive_R():
    z = complex(1.7, 0.21)
    rs = [complex(0.3, 0.5), complex(-1.2, 0.8), complex(0.1, 0.02)]
    m = vertex_merge_m([m_from_r(r, z) for r in rs], z)
    assert abs(r_from_m(m, z) - sum(rs)) < 1e-12


def test_vertex_merge_singular():
    with pytest.raises(SingularMergeError):
        vertex_merge_m([complex(1.0, 0.0), 0j], complex(2.0, 0.1))


@settings(max_examples=60, deadline=None)
@given(
    e=st.floats(0.2, 8.0),
    eta=st.floats(0.01, 2.0),
    le=st.floats(0.05, 3.0),
    rre=st.floats(-3.0, 3.0),
    rim=st.floats(0.05, 3.0),
)
def test_edge_step_routes_agree(e, eta, le, rre, rim):
    # the disk step pulls a far-end value to the near end; the Moebius
    # flow pushes a near-end value forward, so the two must invert
    z = complex(e, eta)
    r_far = complex(rre, rim)
    r_near = r_from_m(edge_step_m(m_from_r(r_far, z), le, z), z)
    back = edge_step_R(r_near, le, z)
    assert abs(back - r_far) < 1e-9 * max(1.0, abs(r_far), abs(r_near))


def test_solve_depth0_seed_is_exact():
    spec = TreeSpec(K=2, L=1.0, depth=0)
    dm = DisorderModel()
    z = complex(2.0, 0.3)
    w = sqrt_upper(z)
    # seed m = 0 means the cut edge carries R = iw at its far end
    r = solve_root_R(spec, dm, z, seed_m=0j)
    expect = edge_step_R(1j * w, 1.0, z)
    assert abs(r - expect) < 1e-12


def test_clean_tree_reproduces_fixed_point():
    dm = DisorderModel(lam=0.0)
    z = complex(2.0, 0.05)
    for K, depth in [(2, 4), (2, 9), (3, 6)]:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        phi = fixed_point_R(z, K, 1.0).phi
        r = solve_root_R(spec, dm, z, seed_m=cut_seed_disk(z, K, 1.0))
        assert abs(r - phi) < 1e-12


def test_clean_tree_zero_seed_converges_with_depth():
    dm = DisorderModel(lam=0.0)
    z = complex(2.0, 0.4)
    spec10 = TreeSpec(K=2, L=1.0, depth=10)
    phi = fixed_point_R(z, 2, 1.0).phi
    errs = []
    for depth in (2, 6, 10):
        spec = TreeSpec(K=2, L=1.0, depth=depth)
        errs.append(abs(solve_root_R(spec, dm, z) - phi))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


def _half_plane_R(spec, dm, z, path, R_seed, replica):
    # Independent oracle: half-plane recursion over explicit addresses.
    # Each edge pulls its far-end WT value back by the Moebius flow over
    # minus its length; a vertex adds the values of its K children.
    if len(path) == spec.depth:
        R_far = R_seed
    else:
        R_far = sum(
            _half_plane_R(spec, dm, z, path + (d,), R_seed, replica) for d in range(spec.K)
        )
    le = edge_length(spec, dm, EdgeAddress(path), replica)
    return edge_step_R(R_far, -le, z)


def _close(a, b):
    return abs(a - b) <= 1e-10 * max(1.0, abs(b))


ORACLE_TREES = [(1, 7), (2, 6), (3, 4), (5, 3)]


def test_scalar_vs_batch():
    z = complex(3.1, 0.07)
    for K, depth in ORACLE_TREES:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        dm = DisorderModel(lam=0.15, dist="uniform", master_seed=11)
        seed = cut_seed_disk(z, K, 1.0)
        R_seed = r_from_m(seed, z)
        batch = solve_root_R_batch(spec, dm, z, seed, replicas=range(4))
        for i in range(4):
            expect = _half_plane_R(spec, dm, z, (), R_seed, i)
            assert _close(batch[i], expect)
            assert _close(solve_root_R(spec, dm, z, seed_m=seed, replica=i), expect)


def test_solve_edge_R_deep_address_matches_oracle():
    z = complex(2.3, 0.05)
    for K, depth in ORACLE_TREES:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        dm = DisorderModel(lam=0.2, dist="truncated_normal", master_seed=4)
        seed = complex(0.3, -0.2)
        for g in (depth - 2, depth):
            path = tuple((j + 1) % K for j in range(g))
            got = solve_edge_R(spec, dm, z, EdgeAddress(path), seed, replica=7)
            assert _close(got, _half_plane_R(spec, dm, z, path, r_from_m(seed, z), 7))
            # the batch form of the same edge, one row per replica
            batch = solve_root_R_batch(spec, dm, z, seed, [7, 3], addr=EdgeAddress(path))
            for i, rep in enumerate((7, 3)):
                assert _close(batch[i], _half_plane_R(spec, dm, z, path, r_from_m(seed, z), rep))
        with pytest.raises(ValidationError):
            solve_root_R_batch(spec, dm, z, seed, [7], addr=EdgeAddress((0,) * (depth + 1)))


@pytest.mark.parametrize("replica", [0, 2**63 + 5])
def test_one_row_views_equal_their_batch_row(replica):
    # a one-row view carries the bits of its row in a three-row batch
    # call, the probed replica in the middle, at generations 0, depth - 2
    # and depth; R^- reads the same one-row solve, so it is compared
    # with its own walk over the batch capture
    z = complex(2.3, 0.05)
    reps = [replica - 1 if replica else 2**64 - 1, replica, replica + 1]
    for K, depth in ORACLE_TREES:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        dm = DisorderModel(lam=0.2, master_seed=4)
        seed = cut_seed_disk(z, K, 1.0)
        for g in (0, depth - 2, depth):
            addr = EdgeAddress(tuple((j + 1) % K for j in range(g)))
            row = solve_root_R_batch(spec, dm, z, seed, reps, addr=addr)[1]
            assert solve_edge_R(spec, dm, z, addr, seed, replica) == row
        _, cap = solve_root_R_batch(spec, dm, z, seed, reps, capture=True)
        _, lone = solve_root_R_batch(spec, dm, z, seed, [replica], capture=True)
        for g in range(depth + 1):
            assert lone.m_near[g][0].tobytes() == cap.m_near[g][1].tobytes()
            assert lone.lengths[g][0].tobytes() == cap.lengths[g][1].tobytes()


def test_solve_R_minus_position_must_be_real():
    spec = TreeSpec(K=2, L=1.0, depth=4)
    dm = DisorderModel(lam=0.1, master_seed=3)
    z = complex(2.0, 0.01)
    target = EdgeAddress((1, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for position in (np.array([0.1, 0.2]), np.array(0.1), "0.1", 0.1 + 0j, True, None):
            with pytest.raises(ValidationError, match="position must be a real number"):
                solve_R_minus(spec, dm, z, target, position)
        with pytest.raises(ValidationError, match="outside the target edge"):
            solve_R_minus(spec, dm, z, target, -0.5)
        for position in (0, 0.25, np.float64(0.25), np.float32(0.25)):
            assert cmath.isfinite(solve_R_minus(spec, dm, z, target, position))


def test_batch_per_replica_z_and_seed():
    dm = DisorderModel(lam=0.1, master_seed=2)
    zs = np.array([complex(2.0, 0.1), complex(2.5, 0.2), complex(3.0, 0.4)])
    seeds = np.array([0j, complex(0.2, 0.1), complex(-0.1, 0.3)])
    for K, depth in ORACLE_TREES:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        batch = solve_root_R_batch(spec, dm, zs, seed_m=seeds, replicas=range(3))
        for i in range(3):
            z = complex(zs[i])
            expect = _half_plane_R(spec, dm, z, (), r_from_m(complex(seeds[i]), z), i)
            assert _close(batch[i], expect)
    spec = TreeSpec(K=2, L=1.0, depth=5)
    for bad_z in (complex(2.0, 0.0), complex(math.nan, 0.1), complex(2.0, math.inf)):
        with pytest.raises(ValidationError):
            solve_root_R_batch(spec, dm, np.array([complex(2.0, 0.1), bad_z]), replicas=range(2))


def test_subtree_split_matches_default(monkeypatch):
    # a budget below the leaf count forces the kernel to solve child
    # subtrees and merge them; results and captures keep their bits
    z = complex(2.2, 0.03)
    for K, depth in ORACLE_TREES:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        dm = DisorderModel(lam=0.15, master_seed=3)
        seed = cut_seed_disk(z, K, 1.0)
        full, cap = solve_root_R_batch(spec, dm, z, seed, range(5), capture=True)
        for budget in (1, K + 1, K**2):
            monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", budget)
            split, cap_s = solve_root_R_batch(spec, dm, z, seed, range(5), capture=True)
            assert split.tobytes() == full.tobytes()
            for g in range(depth + 1):
                assert cap_s.lengths[g].tobytes() == cap.lengths[g].tobytes()
                assert cap_s.m_near[g].tobytes() == cap.m_near[g].tobytes()
            expect = _half_plane_R(spec, dm, z, (), r_from_m(seed, z), 2)
            assert _close(solve_root_R_batch(spec, dm, z, seed, [2])[0], expect)
        monkeypatch.undo()


# One-replica root values, pinned to the bit: the top block of a one-replica
# solve holds a single edge, and numpy rounds a one-element complex product
# differently in place than out of place.
_PINNED_ROOTS = [
    (2, 2, complex(2, 0.01), 2, "0x1.8d248d6097e3dp-3", "0x1.ff6a14ece34a3p-1"),
    (2, 2, complex(9, 0.5), 4, "-0x1.4602cf667a84dp+2", "0x1.16bb8880a364fp+3"),
    (2, 4, complex(0.7, 0.3), 0, "-0x1.7c47714dd75e8p-3", "0x1.2581f37996068p-1"),
    (3, 2, complex(2, 0.01), 3, "-0x1.21c1db971dd20p-6", "0x1.90c280af7d62ap-1"),
]


# The far-end seeds of those solves, pinned to the bit as inputs so that the
# roots pin the kernel's rounding alone; each is a clean cut seed to within
# a few ulps.
_PINNED_SEEDS = {
    (2, complex(2, 0.01)): ("0x1.60ec5ce98994cp-3", "0x1.bc039c30a2db0p-6"),
    (2, complex(9, 0.5)): ("0x1.9948eac130bddp-1", "-0x1.d3edac2172ebep-3"),
    (2, complex(0.7, 0.3)): ("0x1.d51e321ae7193p-3", "0x1.1fbe38699a00fp-3"),
    (3, complex(2, 0.01)): ("0x1.13e929babff20p-2", "0x1.5b006d503c52fp-5"),
}


@pytest.mark.parametrize("K,depth,z,replica,re_hex,im_hex", _PINNED_ROOTS)
def test_single_replica_root_pinned(K, depth, z, replica, re_hex, im_hex):
    spec = TreeSpec(K=K, L=1.0, depth=depth)
    dm = DisorderModel(lam=0.3, dist="uniform", master_seed=7)
    seed = complex(*map(float.fromhex, _PINNED_SEEDS[K, z]))
    assert abs(seed - cut_seed_disk(z, K, 1.0)) < 1e-15
    R = solve_root_R(spec, dm, z, seed, replica)
    assert R == complex(float.fromhex(re_hex), float.fromhex(im_hex))


# The single-edge views at the probe configuration (K=2, depth 8, lam 0.1,
# uniform, master seed 1, z = 2 + 0.01i, the pinned cut seed above): R+ and
# R- on the generation-4 edge (1, 0, 1, 1), then tree_profile's near-end R
# and psi on leaf 200.  Each is (re, im) hex.  One-replica solves multiply
# one-element blocks, where numpy's in-place and out-of-place complex
# products round apart, so these pin the small-call path's rounding.
_PROBE_ADDR = (1, 0, 1, 1)
_PINNED_PROBES = {
    0: (
        ("0x1.c4904c440c8cap-7", "0x1.d2c8d6f024d19p-1"),
        ("-0x1.cd55306100b0dp-2", "0x1.df59c003e7c2cp+0"),
        ("-0x1.dd94d409d7696p-7", "0x1.fe62f729dc445p-1"),
        ("0x1.507700905dafap-6", "-0x1.dd7386229cd66p-5"),
    ),
    7: (
        ("-0x1.f05e358f60cb6p-6", "0x1.e1d667d415bc5p-1"),
        ("-0x1.290eecb0a7e13p-1", "0x1.eb034e43a669dp+0"),
        ("-0x1.00f321ebf34bap-6", "0x1.fe65e0299c202p-1"),
        ("0x1.758a19b7dd408p-6", "-0x1.dec4d55a4f8e0p-5"),
    ),
    2**63 + 5: (
        ("0x1.87fa01c27b952p-6", "0x1.f568ba0f1107cp-1"),
        ("-0x1.3ff3f4060d67bp-2", "0x1.c00e34f600fd7p+0"),
        ("-0x1.221bbb0c9a182p-4", "0x1.0045ca33a58e2p+0"),
        ("0x1.500a2da1452dfp-6", "-0x1.dc7e2c2680950p-5"),
    ),
}


@pytest.mark.parametrize("replica", sorted(_PINNED_PROBES))
def test_single_edge_views_pinned(replica):
    spec = TreeSpec(K=2, L=1.0, depth=8)
    dm = DisorderModel(lam=0.1, dist="uniform", master_seed=1)
    z = complex(2, 0.01)
    seed = complex(*map(float.fromhex, _PINNED_SEEDS[2, z]))
    addr = EdgeAddress(_PROBE_ADDR)
    R_plus, R_minus, R_leaf, psi_leaf = (
        complex(*map(float.fromhex, pair)) for pair in _PINNED_PROBES[replica]
    )
    assert solve_edge_R(spec, dm, z, addr, seed, replica) == R_plus
    assert solve_R_minus(spec, dm, z, addr, 0.0, replica, seed) == R_minus
    profile = tree_profile(spec, dm, z, replica, seed)
    assert profile.R_near[8][200] == R_leaf
    assert profile.psi_near[8][200] == psi_leaf


def test_batch_capture_consistent_with_addresses():
    spec = TreeSpec(K=2, L=1.0, depth=2)
    dm = DisorderModel(lam=0.2, master_seed=5)
    z = complex(2.2, 0.3)
    R, cap = solve_root_R_batch(spec, dm, z, replicas=[3], capture=True)
    assert [arr.shape[1] for arr in cap.lengths] == [1, 2, 4]
    for g in range(3):
        for i in range(2**g):
            path = [(i >> (g - 1 - j)) & 1 for j in range(g)]
            le = edge_length(spec, dm, EdgeAddress(path), replica=3)
            assert cap.lengths[g][0, i] == le
    root_r = r_from_m(complex(cap.m_near[0][0, 0]), z)
    assert abs(root_r - R[0]) < 1e-12


def test_visit_budget():
    spec = TreeSpec(K=2, L=1.0, depth=30)
    dm = DisorderModel()
    with pytest.raises(BudgetExceededError):
        solve_root_R(spec, dm, complex(2.0, 0.5))
    with pytest.raises(BudgetExceededError):
        solve_root_R_batch(spec, dm, complex(2.0, 0.5))


@pytest.mark.filterwarnings("error")
def test_seed_validation():
    spec = TreeSpec(K=2, L=1.0, depth=2)
    dm = DisorderModel()
    for seed in (complex(1.2, 0.0), complex(1.0, 0.0), complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(ValidationError):
            solve_root_R(spec, dm, complex(2.0, 0.5), seed_m=seed)


_CHECK_SPEC = TreeSpec(K=2, L=1.0, depth=3)
_CHECK_DM = DisorderModel(lam=0.1, master_seed=1)
_CHECK_Z = complex(2.0, 0.01)
_NAN_SEED = np.array([complex(math.nan, 0.0)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: wtree.ac_bands(2, 1.0, 1.5), id="bands-n_max-float"),
        pytest.param(lambda: wtree.ac_bands(2, 1.0, True), id="bands-n_max-bool"),
        pytest.param(lambda: wtree.iterate_m_map(_CHECK_Z, 2, 1.0, n_steps=-1), id="m_map-steps"),
        pytest.param(lambda: wtree.iterate_m_map(_CHECK_Z, 0, 1.0), id="m_map-K"),
        pytest.param(lambda: edge_length(_CHECK_SPEC, _CHECK_DM, ROOT_EDGE, -1), id="edge_length"),
        pytest.param(lambda: wtree.resample_omega(_CHECK_DM, ROOT_EDGE, -1), id="resample_omega"),
        pytest.param(lambda: wtree.resample_omega(_CHECK_DM, ROOT_EDGE, 2**64), id="omega-2**64"),
        pytest.param(lambda: solve_edge_R(_CHECK_SPEC, _CHECK_DM, _CHECK_Z, replica=-1), id="edge_R"),
        pytest.param(
            lambda: tree_profile(_CHECK_SPEC, _CHECK_DM, _CHECK_Z, seed_m=np.array([0j])),
            id="profile-seed-array",
        ),
        pytest.param(
            lambda: solve_edge_R(_CHECK_SPEC, _CHECK_DM, _CHECK_Z, seed_m=np.array([0j])),
            id="edge_R-seed-array",
        ),
        pytest.param(
            lambda: solve_edge_R(_CHECK_SPEC, _CHECK_DM, _CHECK_Z, seed_m=_NAN_SEED),
            id="edge_R-seed-nan-array",
        ),
        pytest.param(
            lambda: solve_R_minus(_CHECK_SPEC, _CHECK_DM, _CHECK_Z, seed_m=np.array([0j])),
            id="R_minus-seed-array",
        ),
        pytest.param(
            lambda: solve_R_minus(_CHECK_SPEC, _CHECK_DM, _CHECK_Z, seed_m=_NAN_SEED),
            id="R_minus-seed-nan-array",
        ),
    ],
)
def test_counts_replicas_and_seeds_checked(call):
    # counts go through the kernel's count check, replicas through its
    # 64-bit word check, and the one-replica views take one seed, as they
    # take one z: each raises ValidationError before any arithmetic
    with pytest.raises(ValidationError):
        call()


@pytest.mark.filterwarnings("error")
def test_batch_reports_failed_rows():
    # one NaN seed row fails alone; every row is still computed
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.2, master_seed=8)
    z = complex(2.3, 0.02)
    seeds = np.full(4, cut_seed_disk(z, 2, 1.0))
    clean = solve_root_R_batch(spec, dm, z, seeds, range(4))
    seeds[2] = complex(math.nan, 0.0)
    with pytest.raises(RowDegeneracyError) as info:
        solve_root_R_batch(spec, dm, z, seeds, range(4))
    exc = info.value
    assert isinstance(exc, NumericalDegeneracyError)
    assert str(exc) == "tree solve produced non-finite WT values"
    assert exc.reasons == [None, None, "tree solve produced non-finite WT values", None]
    assert np.isnan(exc.values[2])
    keep = [0, 1, 3]
    assert np.array_equal(exc.values[keep], clean[keep])
    # one-replica views still raise for their row
    with pytest.raises(NumericalDegeneracyError):
        solve_root_R_batch(spec, dm, z, seeds[2:3], [2])


def _addresses(K, g):
    """Edge addresses of generation g in the kernel's lexicographic order."""
    if g == 0:
        return [()]
    return [a + (d,) for a in _addresses(K, g - 1) for d in range(K)]


def test_edge_length_is_the_kernel_length():
    # edge_length sizes an edge through the kernel's own length map, so it
    # describes the tree the kernel solves to the last bit
    spec = TreeSpec(K=3, L=1.3, depth=5)
    z = complex(2.0, 0.1)
    for dist in ("uniform", "two_point", "truncated_normal"):
        for lam in (0.1, 0.3, 1.0):
            dm = DisorderModel(lam=lam, dist=dist, master_seed=4)
            _, cap = solve_root_R_batch(spec, dm, z, replicas=[0, 7], capture=True)
            for g in range(spec.depth + 1):
                for row, replica in enumerate((0, 7)):
                    expect = [edge_length(spec, dm, EdgeAddress(a), replica) for a in _addresses(K=3, g=g)]
                    assert cap.lengths[g][row].tolist() == expect


@pytest.mark.parametrize("K,depth", ORACLE_TREES)
def test_shared_replica_rows_equal_one_row_solves(K, depth, monkeypatch):
    # rows that share one replica draw that tree once per generation; each
    # row must equal its own one-row solve, which never takes that route
    drawn_rows = set()
    omega = wtree.engine.omega_for_generation

    def recording(dm, K, g, replicas, prefix=()):
        drawn_rows.add(replicas.shape[0])
        return omega(dm, K, g, replicas, prefix)

    monkeypatch.setattr(wtree.engine, "omega_for_generation", recording)
    spec = TreeSpec(K=K, L=1.0, depth=depth)
    dm = DisorderModel(lam=0.3, dist="truncated_normal", master_seed=12)
    zs = np.array([complex(e, eta) for e, eta in [(2.0, 0.01), (0.5, 0.3), (9.0, 1e-3),
                                                 (-1.0, 0.2), (3.3, 2.0), (2.0, 0.01)]])
    seeds = np.array([cut_seed_disk(complex(z), K, 1.0) for z in zs])
    seeds[3] = 0j
    replica = 5
    reps = np.full(zs.size, replica)
    leaves = K**depth
    # one block, blocks of a few rows, and subtree splits
    for budget in (wtree.engine._BLOCK_ELEMS, 4 * leaves, 2 * leaves, K + 1, 1):
        monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", budget)
        drawn_rows.clear()
        R, cap = solve_root_R_batch(spec, dm, zs, seeds, reps, capture=True)
        assert drawn_rows == {1}
        for i in range(zs.size):
            one, cap_1 = solve_root_R_batch(spec, dm, zs[i], seeds[i], [replica], capture=True)
            assert R[i] == one[0] == solve_root_R(spec, dm, complex(zs[i]), seeds[i], replica)
            for g in range(depth + 1):
                assert cap.m_near[g][i].tobytes() == cap_1.m_near[g][0].tobytes()
                assert cap.lengths[g][i].tobytes() == cap_1.lengths[g][0].tobytes()
        for g in range(depth + 1):
            assert cap.lengths[g].shape == cap.m_near[g].shape == (zs.size, K**g)
            expect = [edge_length(spec, dm, EdgeAddress(a), replica) for a in _addresses(K, g)]
            assert np.array_equal(cap.lengths[g], np.broadcast_to(expect, cap.lengths[g].shape))


def _counted_omega(monkeypatch):
    """The generation range of every omega draw the kernel makes."""
    calls = []
    omega = wtree.engine.omega_for_generation

    def counting(dm, K, g, replicas, prefix=()):
        calls.append(g)
        return omega(dm, K, g, replicas, prefix)

    monkeypatch.setattr(wtree.engine, "omega_for_generation", counting)
    return calls


def test_one_block_draws_every_edge_in_one_call(monkeypatch):
    calls = _counted_omega(monkeypatch)
    spec = TreeSpec(K=2, L=1.0, depth=8)
    dm = DisorderModel(lam=0.1, master_seed=4)
    z = complex(2.0, 0.01)
    for capture in (False, True):
        calls.clear()
        solve_root_R_batch(spec, dm, z, 0j, range(4), capture=capture)
        assert calls == [range(0, 9)]
        calls.clear()
        solve_root_R_batch(spec, dm, z, 0j, range(4), capture=capture, addr=EdgeAddress((1, 0)))
        assert calls == [range(2, 9)]
    calls.clear()
    solve_edge_R(spec, dm, z, EdgeAddress((0, 1, 1)), replica=3)
    assert calls == [range(3, 9)]
    calls.clear()
    solve_R_minus(spec, dm, z, EdgeAddress((0, 1, 1)), replica=3)
    assert calls == [range(0, 9)]


@pytest.mark.parametrize(
    "K,depth,B,budget,split_edges,blocks",
    [
        # K=2: generations 0-2 split (1 + 2 + 4 edges); the 8 subtrees of
        # depth 3 (15 edges) fit 20 elements only one row at a time
        (2, 6, 1, 20, 7, 8 * 5),
        # K=4: the root splits; its 4 subtrees of depth 2 (16 leaves, 21
        # edges) take 60 // 21 = 2 rows a block, so 5 rows make 3 blocks
        (4, 3, 1, 60, 1, 4 * 3),
        # two models hold twice the elements per row: 60 // 42 = 1 row a
        # block, and 120 // 42 = 2 rows as for one model at 60
        (4, 3, 2, 60, 1, 4 * 5),
        (4, 3, 2, 120, 1, 4 * 3),
        # 85 edges fit 85 elements for one model, not for two: 85 // 42
        # = 2 rows a block, so 5 rows make 3 blocks
        (4, 3, 1, 85, 0, 5),
        (4, 3, 2, 85, 1, 4 * 3),
        # 64 leaves, but 85 edges: a row of this tree splits at 64
        (4, 3, 1, 64, 1, 4 * 2),
        # a chain has one leaf and never splits, whatever the budget
        (1, 7, 3, 1, 0, 5),
    ],
)
def test_split_draws_once_per_block_and_split_edge(
    monkeypatch, K, depth, B, budget, split_edges, blocks
):
    calls = _counted_omega(monkeypatch)
    monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", budget)
    spec = TreeSpec(K=K, L=1.0, depth=depth)
    # models of one master seed and dist draw each edge once for all
    models = [DisorderModel(lam=0.1 * (b + 1), master_seed=4) for b in range(B)]
    for capture in (False, True):
        calls.clear()
        solve_root_R_batch(spec, models, complex(2.0, 0.01), 0j, range(5), capture=capture)
        # a split edge is solved as a one-edge subtree: a range of one
        # generation that stops above the leaves
        assert sum(g.stop <= depth for g in calls) == split_edges
        assert sum(g.stop == depth + 1 for g in calls) == blocks


def test_one_replica_rows_draw_their_tree_once(monkeypatch):
    # rows of one replica solve one tree, so however many blocks they
    # take, its edges are drawn once
    calls = _counted_omega(monkeypatch)
    # 250 // 121 edges = 2 rows a block, so 9 rows make 5 blocks
    monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", 250)
    spec = TreeSpec(K=3, L=1.0, depth=4)
    dm = DisorderModel(lam=0.1, master_seed=4)
    zs = np.linspace(1.0, 3.0, 9) + 0.01j
    for capture in (False, True):
        calls.clear()
        solve_root_R_batch(spec, dm, zs, 0j, [7] * 9, capture=capture)
        assert calls == [range(0, 5)]
        calls.clear()
        solve_root_R_batch(spec, dm, zs, 0j, [7] * 8 + [8], capture=capture)
        assert calls == [range(0, 5)] * 5


def _peak_mib(solve):
    """Traced peak of ``solve()``, in MiB, after one untraced warm-up call."""
    solve()
    tracemalloc.start()
    try:
        solve()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_batch_solve_peak_memory_cache_blocks():
    # a block holds at most _BLOCK_ELEMS = 2**18 elements of its (B, rows,
    # edges) arrays for all its models (at least one row), its drawn
    # omegas included, solved in two reused scratch buffers: one model's
    # child solve peaks near 11.0 MiB, and a stack of two models with one
    # master seed, at half the rows a block, near 9.0
    z = complex(2.0, 0.01)
    spec = TreeSpec(K=2, L=1.0, depth=12)
    dm = DisorderModel(lam=0.1, master_seed=3)
    reps = np.arange(500, dtype=np.uint64)
    for dms, bound in ((dm, 14), ([dm, DisorderModel(lam=0.05, master_seed=3)], 12)):
        args = (spec, dms, z, cut_seed_disk(z, 2, 1.0), reps)
        assert _peak_mib(lambda: solve_root_R_batch(*args, addr=ROOT_EDGE.child(0))) <= bound


def test_batch_solve_peak_memory_any_depth_and_models():
    # one budget counts every edge of every model of a block: a depth-20
    # solve splits down to subtrees of at most 2**18 edges for all models,
    # so one model peaks near 11 MiB and a stack of two near 9 (counting
    # leaves, about half the edges, they peaked near 22 and 18); a
    # four-model stack at the default stability shape (depth 12, per-row
    # z and seeds) takes 8-row blocks and peaks near 8.5 MiB at any row
    # count past one block
    z = complex(2.0, 0.01)
    seed = cut_seed_disk(z, 2, 1.0)
    models = [DisorderModel(lam=lam, master_seed=3) for lam in (0.2, 0.1, 0.05, 0.02)]
    deep = TreeSpec(K=2, L=1.0, depth=20)
    assert _peak_mib(lambda: solve_root_R_batch(deep, models[0], z, seed, range(2))) <= 12
    assert _peak_mib(lambda: solve_root_R_batch(deep, models[:2], z, seed, range(2))) <= 32
    spec = TreeSpec(K=2, L=1.0, depth=12)
    zs = np.linspace(0.5, 9.0, 64) + 1e-3j
    seeds = np.full(zs.size, seed)
    assert _peak_mib(lambda: solve_root_R_batch(spec, models, zs, seeds, range(zs.size))) <= 12


def _stack_models(dist):
    """Models sharing one tree, a lam = 0 row, another dist and another master seed."""
    return [
        DisorderModel(lam=0.3, dist=dist, master_seed=7),
        DisorderModel(lam=0.0, dist=dist, master_seed=7),
        DisorderModel(lam=0.1, dist=dist, master_seed=9),
        DisorderModel(lam=0.3, dist="uniform" if dist != "uniform" else "two_point", master_seed=7),
    ]


@pytest.mark.parametrize("dist", ["uniform", "two_point", "truncated_normal"])
@pytest.mark.parametrize("K,depth", [(1, 7), (2, 6), (3, 4), (5, 3)])
def test_stacked_solve_equals_lone_solves(K, depth, dist, monkeypatch):
    # row b of a stacked solve is the solve of model b alone, bit for bit,
    # its capture included, at any thread count, block size and split
    spec = TreeSpec(K=K, L=1.0, depth=depth)
    models = _stack_models(dist)
    z = complex(2.0, 0.05)
    seed = cut_seed_disk(z, K, 1.0)
    default = wtree.engine._BLOCK_ELEMS
    B = len(models)
    # (rows, budget): one row; the default blocks; blocks of 3 stacked
    # rows (12 lone ones); a stack that splits where its lone rows do not
    # (a lone row holds at most 81 leaves, a row of four models at least
    # 4 * 27 at either address); splits down to one-row blocks, of
    # subtrees of at most 2 leaves stacked and 8 lone
    cases = [(1, default), (500, default), (40, 3 * B * spec.edge_count()), (9, 100), (7, 2 * B)]
    for S, budget in cases:
        monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", budget)
        reps = np.arange(S, dtype=np.uint64) * 3 + 1
        for addr in (ROOT_EDGE, ROOT_EDGE.child(K - 1)):
            kw = dict(addr=addr)
            lone = [solve_root_R_batch(spec, dm, z, seed, reps, capture=True, **kw) for dm in models]
            for threads in (1, 2, 3) if S > 1 else (1,):
                R, cap = solve_root_R_batch(
                    spec, models, z, seed, reps, capture=True, threads=threads, **kw
                )
                assert R.shape == (len(models), S)
                for b, (R_b, cap_b) in enumerate(lone):
                    assert R[b].tobytes() == R_b.tobytes()
                    for g in range(depth + 1 - addr.generation):
                        assert cap.m_near[g][b].tobytes() == cap_b.m_near[g].tobytes()
                        assert cap.lengths[g][b].tobytes() == cap_b.lengths[g].tobytes()
                plain = solve_root_R_batch(spec, models, z, seed, reps, threads=threads, **kw)
                assert plain.tobytes() == R.tobytes()


def test_disk_to_r_bits_do_not_depend_on_batch_size():
    # above 256 KiB numpy would reuse the temporary 1 + m as the output of
    # the product with a scalar w, which rounds differently; a stacked row
    # must get the bits of the row alone at any size
    rng = np.random.default_rng(4)
    m = 0.9 * np.exp(2j * np.pi * rng.random((2, 10000)))
    for w in (complex(np.sqrt(2.0 + 0.01j)), np.sqrt(2.0 + 1j * rng.random(10000))):
        both = wtree.engine._disk_to_r(m, w)
        for b in range(2):
            assert both[b].tobytes() == wtree.engine._disk_to_r(m[b], w).tobytes()
            assert both[b, :3].tobytes() == wtree.engine._disk_to_r(m[b, :3], w[:3] if np.ndim(w) else w).tobytes()


def test_edge_ratio_bits_do_not_depend_on_batch_size():
    # the same elision hazard: above 256 KiB numpy would take the
    # products and the quotient in place in their temporaries
    rng = np.random.default_rng(5)
    R = rng.standard_normal(20000) + 1j * rng.random(20000)
    R_far = rng.standard_normal(20000) + 1j * rng.random(20000)
    le = np.exp(0.2 * rng.standard_normal(20000))
    for w in (complex(np.sqrt(2.0 + 0.01j)), np.sqrt(2.0 + 1j * rng.random(20000))):
        full = wtree.engine._edge_ratio(R, R_far, w, le)
        part = wtree.engine._edge_ratio(
            R[:100], R_far[:100], w[:100] if np.ndim(w) else w, le[:100]
        )
        assert full[:100].tobytes() == part.tobytes()


def test_stacked_solve_validates_models():
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1)
    clean = DisorderModel(lam=0.0)
    z = complex(2.0, 0.05)
    for bad in ([], [dm, "uniform"], "uniform", None, 0.1):
        with pytest.raises(ValidationError):
            solve_root_R_batch(spec, bad, z, 0j, range(3))
    # the one-model entry points take no sequence
    for call in (
        lambda: solve_edge_R(spec, [dm, clean], z),
        lambda: solve_R_minus(spec, [dm, clean], z, EdgeAddress((0, 1)), 0.1),
        lambda: spectral_density(spec, [dm, clean], [2.0], 0.05),
        lambda: tree_profile(spec, [dm], z),
    ):
        with pytest.raises(ValidationError):
            call()
    # a degenerate row fails for every model, named per model
    seeds = np.array([0j, complex(math.nan, 0.0), 0j])
    with pytest.raises(RowDegeneracyError) as info:
        solve_root_R_batch(spec, [dm, clean], complex(2.0, 0.05), seeds, range(3))
    assert info.value.values.shape == (2, 3)
    assert [[r is None for r in row] for row in info.value.reasons] == [[True, False, True]] * 2


def test_stacked_solve_draws_one_tree_for_all_models(monkeypatch):
    # omega does not depend on lam: two models of one master seed and
    # dist draw the words of one lone solve, a second dist draws them again
    words = []
    omega = wtree.engine.omega_for_generation

    def counting(dm, K, g, replicas, prefix=()):
        out = omega(dm, K, g, replicas, prefix)
        words.append(out.size)
        return out

    monkeypatch.setattr(wtree.engine, "omega_for_generation", counting)
    spec = TreeSpec(K=2, L=1.0, depth=7)
    z = complex(2.0, 0.01)
    one, two = DisorderModel(lam=0.05, master_seed=5), DisorderModel(lam=0.1, master_seed=5)
    # the default blocks, and splits that differ between the lone solve
    # (64-leaf subtrees) and the stacks (32 leaves): each edge of each row
    # is still drawn once
    for budget in (wtree.engine._BLOCK_ELEMS, 100):
        monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", budget)
        words.clear()
        solve_root_R_batch(spec, one, z, 0j, range(100))
        lone = sum(words)
        words.clear()
        solve_root_R_batch(spec, [one, two], z, 0j, range(100))
        assert sum(words) == lone
        words.clear()
        other = DisorderModel(lam=0.1, dist="two_point", master_seed=5)
        solve_root_R_batch(spec, [one, two, other], z, 0j, range(100))
        assert sum(words) == 2 * lone


_BAD_REPLICAS = [-1, 2**64, 1.5, True, np.float64(2.0), "3", None]


@pytest.mark.parametrize("bad", _BAD_REPLICAS)
def test_replica_validated(bad):
    # anything but an integer in [0, 2**64) is rejected and named, never
    # wrapped, truncated or raised as a bare OverflowError
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1, master_seed=4)
    z = complex(2.0, 0.1)
    calls = [
        lambda: solve_edge_R(spec, dm, z, replica=bad),
        lambda: solve_root_R(spec, dm, z, replica=bad),
        lambda: solve_R_minus(spec, dm, z, EdgeAddress((1,)), replica=bad),
        lambda: solve_R_minus(TreeSpec(K=2, L=1.0, depth=3, alpha=0.0), dm, z, replica=bad),
    ]
    if bad is not None:  # replicas=None is the default [0]
        calls += [
            lambda: solve_root_R_batch(spec, dm, z, replicas=[0, bad]),
            lambda: solve_root_R_batch(spec, dm, z, replicas=bad),
        ]
    for call in calls:
        with pytest.raises(ValidationError, match="replica") as info:
            call()
        assert repr(bad) in str(info.value)


def test_replica_arrays_validated():
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1, master_seed=4)
    z = complex(2.0, 0.1)
    for bad in (np.array([1.5]), np.array([True]), np.array([0, -1]), np.array(["3"])):
        with pytest.raises(ValidationError, match="replica"):
            solve_root_R_batch(spec, dm, z, replicas=bad)
    # the full uint64 range is valid, as python ints, numpy integers or arrays
    top = 2**64 - 1
    ref = solve_root_R_batch(spec, dm, z, replicas=np.array([top, 0, 7], dtype=np.uint64))
    for reps in ([top, 0, 7], (np.uint64(top), np.int64(0), 7), np.array([7])):
        got = solve_root_R_batch(spec, dm, z, replicas=reps)
        assert got.tobytes() == ref[-got.size :].tobytes()
    assert solve_edge_R(spec, dm, z, replica=top) == ref[0]
    assert solve_root_R_batch(spec, dm, z, replicas=np.int64(7))[0] == ref[2]


def _batch_outcome(*args, **kwargs):
    """(values, reasons) of a batch solve, whether or not rows fail."""
    try:
        return solve_root_R_batch(*args, **kwargs), None
    except RowDegeneracyError as exc:
        return exc.values, exc.reasons


def test_batch_threads_agree(monkeypatch):
    # Values, captures and failed rows are the same at any thread count,
    # also with more threads than rows, one-row parts and a NaN seed row
    # in every part.  Warnings are errors in the worker threads too.
    part_rows = []
    subtree = wtree.engine._solve_subtree

    def recording(spec, dm, prefix, w, seed, reps, *args):
        part_rows.append(reps.size)
        return subtree(spec, dm, prefix, w, seed, reps, *args)

    monkeypatch.setattr(wtree.engine, "_solve_subtree", recording)
    spec = TreeSpec(K=2, L=1.0, depth=5)
    dm = DisorderModel(lam=0.2, master_seed=8)
    z = complex(2.3, 0.02)
    nan = complex(math.nan, math.nan)
    cut = cut_seed_disk(z, 2, 1.0)
    cases = [
        (np.full(2, cut), range(2)),  # 3 threads, 2 rows
        (np.array([cut, nan, 0j]), [4, 4, 4]),  # 3 one-row parts of one replica
        (np.array([nan, cut, cut, nan, 0j, nan]), range(6)),  # a NaN in each part
        (np.array([nan, cut, cut, nan, 0j, nan]), [9] * 6),
        (np.full(7, cut), [1, 1, 1, 2, 2, 3, 3]),  # parts with and without a shared replica
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seeds, reps in cases:
            zs = z + 0.1 * np.arange(seeds.size)
            one, why = _batch_outcome(spec, dm, zs, seeds, reps)
            assert (why is None) == (not np.isnan(seeds).any())
            for threads in (2, 3):
                part_rows.clear()
                got, why_t = _batch_outcome(spec, dm, zs, seeds, reps, threads=threads)
                assert got.tobytes() == one.tobytes()
                assert why_t == why
                # one part per thread, at most one per row, of near-equal size
                assert len(part_rows) == min(threads, seeds.size)
                assert sum(part_rows) == seeds.size
                assert max(part_rows) - min(part_rows) <= 1
            _, cap = solve_root_R_batch(spec, dm, zs, np.full(seeds.size, cut), reps, capture=True)
            _, cap_3 = solve_root_R_batch(
                spec, dm, zs, np.full(seeds.size, cut), reps, capture=True, threads=3
            )
            for g in range(spec.depth + 1):
                assert cap_3.m_near[g].tobytes() == cap.m_near[g].tobytes()
                assert cap_3.lengths[g].tobytes() == cap.lengths[g].tobytes()


def test_batch_threads_validated_before_solving(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(wtree.engine, "_solve_subtree", never)
    spec = TreeSpec(K=2, L=1.0, depth=3)
    for threads in (0, -1, 1.5, None, True):
        with pytest.raises(ValidationError):
            solve_root_R_batch(spec, DisorderModel(), complex(2.0, 0.1), threads=threads)


_SEED_MODES = st.sampled_from(["zero", "cut", "nan"])


@settings(max_examples=60, deadline=None)
@given(
    K=st.integers(1, 3),
    L=st.floats(0.3, 3.0),
    depth=st.integers(0, 6),
    lam=st.floats(0.0, 1.0),
    dist=st.sampled_from(["uniform", "two_point", "truncated_normal"]),
    e=st.floats(-50.0, 100.0),
    log_eta=st.floats(-8.0, 6.0),
    modes=st.lists(_SEED_MODES, min_size=1, max_size=4),
    master_seed=st.integers(0, 2**32),
)
def test_batch_rows_are_herglotz_or_named(K, L, depth, lam, dist, e, log_eta, modes, master_seed):
    # Seeds are images of Herglotz values (m = 0, the cut seed) or NaN
    # rows; arbitrary disk points are not, since for E < 0 a point with
    # |m| <= 1 need not come from an R with Im R > 0.  Warnings are
    # errors in the body only: hypothesis's failure report emits a
    # DeprecationWarning that a filterwarnings mark would turn into an
    # internal error of the whole session.
    z = complex(e, 10.0**log_eta)
    spec = TreeSpec(K=K, L=L, depth=depth)
    dm = DisorderModel(lam=lam, dist=dist, master_seed=master_seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cut = cut_seed_disk(z, K, L)
        nan = complex(math.nan, math.nan)
        seeds = np.array([{"zero": 0j, "cut": cut, "nan": nan}[m] for m in modes])
        replicas = 7 * np.arange(len(modes)) + 3
        try:
            R = solve_root_R_batch(spec, dm, z, seeds, replicas)
            reasons = [None] * len(modes)
        except RowDegeneracyError as exc:
            R, reasons = exc.values, exc.reasons
        for i, rep in enumerate(replicas):
            if reasons[i] is None:
                r = complex(R[i])
                assert cmath.isfinite(r) and r.imag > 0.0
                bound = wt_bound(z, edge_length(spec, dm, ROOT_EDGE, int(rep)))
                assert abs(r) <= bound * (1.0 + 1e-12)
            else:
                assert cmath.isnan(R[i])
            assert (reasons[i] is not None) == cmath.isnan(seeds[i])


def test_cut_seed_large_eta():
    # At z = 2 + 1e6i the edge phase exp(2i*w*L) underflows to 0, so the
    # stationary value is m = 0 (Phi = i*w, the outgoing wave) and the cut
    # seed is the merge of K zeros, (K - 1) / (K + 1).
    z = complex(2.0, 1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for K in (1, 2, 3):
            assert stationary_disk(z, K, 1.0) == 0
            assert abs(cut_seed_disk(z, K, 1.0) - (K - 1) / (K + 1)) < 1e-15
            assert cmath.isfinite(fixed_point_R(z, K, 1.0).phi)
            assert math.isfinite(gamma_clean(z, K, 1.0))


def test_randomized_solves_are_herglotz_and_bounded():
    rng = np.random.default_rng(123)
    for trial in range(50):
        K = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 7))
        lam = float(rng.uniform(0.0, 0.2))
        eta = float(10 ** rng.uniform(-3, 0))
        e = float(rng.uniform(0.2, 7.5))
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        dm = DisorderModel(lam=lam, dist="uniform", master_seed=trial + 1)
        z = complex(e, eta)
        r = solve_root_R(spec, dm, z, seed_m=cut_seed_disk(z, K, 1.0))
        assert r.imag > 0.0
        le = edge_length(spec, dm, ROOT_EDGE)
        w = sqrt_upper(z)
        bound = 2.0 * abs(w) / (1.0 - math.exp(-2.0 * le * w.imag))
        assert abs(r) <= bound * (1.0 + 1e-12)


def test_solve_R_minus_root_values():
    dm = DisorderModel()
    z = complex(2.0, 0.3)
    spec = TreeSpec(K=2, L=1.0, depth=3, alpha=math.pi / 2)
    assert abs(solve_R_minus(spec, dm, z)) < 1e-15
    spec45 = TreeSpec(K=2, L=1.0, depth=3, alpha=math.pi / 4)
    assert abs(solve_R_minus(spec45, dm, z) - (-1.0)) < 1e-14
    spec0 = TreeSpec(K=2, L=1.0, depth=3, alpha=0.0)
    assert solve_R_minus(spec0, dm, z) == WT_INFINITY


def test_solve_R_minus_dirichlet_oracle():
    # alpha = 0 forces psi(0) = 0 on the root edge, so the backward value
    # at position t is -w*cot(w*t) seen from the far side
    dm = DisorderModel(lam=0.0)
    spec = TreeSpec(K=2, L=1.0, depth=4, alpha=0.0)
    z = complex(2.0, 0.3)
    w = sqrt_upper(z)
    for t in (0.25, 0.6, 0.95):
        got = solve_R_minus(spec, dm, z, position=t)
        expect = -w * cmath.cos(w * t) / cmath.sin(w * t)
        assert abs(got - expect) < 1e-10


def test_solve_R_minus_crossing_rule():
    spec = TreeSpec(K=2, L=1.0, depth=4, alpha=1.1)
    dm = DisorderModel(lam=0.2, master_seed=6)
    z = complex(2.4, 0.15)
    l0 = edge_length(spec, dm, ROOT_EDGE)
    r_minus_end = solve_R_minus(spec, dm, z, position=l0)
    child0 = EdgeAddress((0,))
    sib_plus = solve_edge_R(spec, dm, z, addr=EdgeAddress((1,)))
    got = solve_R_minus(spec, dm, z, target=child0, position=0.0)
    assert abs(got - (r_minus_end + sib_plus)) < 1e-10


def test_solve_R_minus_herglotz_sum():
    spec = TreeSpec(K=2, L=1.0, depth=5, alpha=1.3)
    dm = DisorderModel(lam=0.15, master_seed=8)
    z = complex(2.0, 0.05)
    for target, pos in [(ROOT_EDGE, 0.5), (EdgeAddress((0,)), 0.3), (EdgeAddress((1, 0)), 0.7)]:
        rm = solve_R_minus(spec, dm, z, target=target, position=pos)
        rp = solve_edge_R(spec, dm, z, addr=target)
        # propagate the forward value to the evaluation point
        le = edge_length(spec, dm, target)
        rp_at = edge_step_R(rp, le - pos, z) if pos < le else rp
        assert (rp_at + rm).imag > 0.0


def _R_minus_150(spec, dm, z, target, position):
    """R^- walked with the plain transfer matrix in 150-digit arithmetic.

    The path lengths and the siblings' forward values are the doubles of
    the captured solve that :func:`solve_R_minus` reads; the pair starts
    at (sin(alpha), cos(alpha)) and crosses each edge by cos(w*l) and
    sin(w*l), which the extra digits carry at any eta.
    """
    K = spec.K
    _, cap = solve_root_R_batch(spec, dm, z, replicas=[0], capture=True)
    with mpmath.workdps(150):
        w = mpmath.sqrt(mpmath.mpc(z))

        def step(u, up, l):
            c, s = mpmath.cos(w * l), mpmath.sin(w * l)
            return u * c + up * s / w, -u * w * s + up * c

        u, up = mpmath.sin(mpmath.mpf(spec.alpha)), mpmath.cos(mpmath.mpf(spec.alpha))
        i = 0
        for g, d in enumerate(target.path):
            u, up = step(u, up, mpmath.mpf(float(cap.lengths[g][0, i])))
            kids = cap.m_near[g + 1][0, i * K : (i + 1) * K]
            up -= sum(mpmath.mpc(r_from_m(complex(m), z)) for j, m in enumerate(kids) if j != d) * u
            i = i * K + d
        u, up = step(u, up, mpmath.mpf(position))
        return complex(-up / u)


@pytest.mark.parametrize("eta", [1e-2, 1.0, 1e3, 1e4, 1e5, 1e6])
def test_solve_R_minus_matches_150_digits(eta):
    # K=2, depth 8, alpha 1.1, target (0, 1, 1, 0), position 0.3 up to
    # eta 1e6, where cos(w*l) overflows; then boundary angles near the
    # Dirichlet pole and near pi/2, on the root edge and at generation 4
    z = complex(2.0, eta)
    dm = DisorderModel(lam=0.1, master_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1.1, 1e-8, 1e-12, math.pi / 2 - 1e-9, math.pi / 2):
            spec = TreeSpec(K=2, L=1.0, depth=8, alpha=alpha)
            for target in (ROOT_EDGE, EdgeAddress((0, 1, 1, 0))):
                for position in (0.0, 0.3):
                    got = solve_R_minus(spec, dm, z, target, position)
                    assert cmath.isfinite(got)
                    want = _R_minus_150(spec, dm, z, target, position)
                    assert abs(got - want) <= 2e-15 * abs(want), (alpha, target, position)


def test_solve_R_minus_rejects_missing_edges():
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1)
    z = complex(2.0, 0.1)
    for path in [(5,), (0, 2), (-1,), (0, 0, 0, 0)]:
        with pytest.raises(ValidationError):
            solve_R_minus(spec, dm, z, target=EdgeAddress(path))


def test_single_point_views_reject_arrays():
    # one spectral point: an array is rejected up front, not by numpy's
    # scalar conversion
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1, master_seed=2)
    for z in (np.array([complex(2, 0.01)]), np.array([[complex(2, 0.01)]]), np.full(3, 2 + 0.1j)):
        with pytest.raises(ValidationError, match="one spectral point"):
            solve_edge_R(spec, dm, z, EdgeAddress((1,)))
        with pytest.raises(ValidationError, match="one spectral point"):
            solve_root_R(spec, dm, z)
        with pytest.raises(ValidationError, match="one spectral point"):
            solve_R_minus(spec, dm, z, EdgeAddress((1,)))
        with pytest.raises(ValidationError, match="one spectral point"):
            tree_profile(spec, dm, z)
    # a 0-d array is one point
    assert tree_profile(spec, dm, np.array(complex(2, 0.01))).z == complex(2, 0.01)


def test_solve_R_minus_position_validation():
    spec = TreeSpec(K=2, L=1.0, depth=2)
    dm = DisorderModel()
    with pytest.raises(ValidationError):
        solve_R_minus(spec, dm, complex(2.0, 0.1), position=5.0)
    with pytest.raises(ValidationError):
        solve_R_minus(spec, dm, complex(2.0, 0.1), position=-0.1)


def test_eta_intercept_matches_polyfit():
    rng = np.random.default_rng(5)
    etas = [1e-1, 1e-2, 1e-3, 1e-4]
    values = rng.normal(size=(4, 7, 3))
    got = _eta_intercept(etas, values)
    for i in range(7):
        for k in range(3):
            expect = np.polyfit(etas, values[:, i, k], 1)[1]
            assert abs(got[i, k] - expect) < 1e-12


def test_boundary_extrapolate():
    def fn(z):
        return complex(2.0 + 3.0 * z.imag, 1.0 - 0.5 * z.imag)

    got = boundary_extrapolate(fn, 1.0, etas=(0.2, 0.1, 0.05))
    assert abs(got - complex(2.0, 1.0)) < 1e-12
    with pytest.raises(ValidationError):
        boundary_extrapolate(fn, 1.0, etas=(0.1,))
    with pytest.raises(ValidationError):
        boundary_extrapolate(fn, 1.0, etas=(0.1, -0.2))
    # one distinct eta leaves the fit's slope undetermined
    for etas in [(0.1, 0.1), (), (0.1, math.inf), (0.1, math.nan)]:
        with pytest.raises(ValidationError):
            boundary_extrapolate(fn, 1.0, etas=etas)


def test_sibling_sum_adds_columns_in_order():
    # the sibling sum adds the K columns in order, on complex and on float
    # input; up to 3 siblings that is numpy's own order, so .sum's bits
    rng = np.random.default_rng(8)
    for K in range(1, 131):
        for S, N in [(5, K), (3, K * K)]:
            mag = 10.0 ** rng.uniform(-8, 8, size=(S, N))
            x = rng.standard_normal((S, N)) * mag
            m = x + 1j * rng.standard_normal((S, N)) * mag
            for v in (m, x):
                cols = v.reshape(-1, K)
                expect = sum(cols[:, k] for k in range(K))
                assert _sibling_sum(cols).tobytes() == expect.tobytes(), K
                out = np.empty_like(expect)
                assert _sibling_sum(cols, out=out) is out
                assert out.tobytes() == expect.tobytes(), K
                if K <= 3:
                    assert expect.tobytes() == cols.sum(axis=-1).tobytes(), K
            zeta = _sibling_sum(m.reshape(-1, K)).reshape(S, -1)
            merged = _merge_sum(m.reshape(S, -1, K))
            assert merged.tobytes() == ((zeta - 1.0) / (zeta + 1.0)).tobytes(), K
    m = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    h = m.copy()
    assert _merge_terms(h) is h
    assert h.tobytes() == ((1.0 + m) / (1.0 - m)).tobytes()


@pytest.mark.parametrize("K,depth", [(1, 6), (2, 5), (3, 3), (5, 3)])
def test_omega_means_match_redraws_and_every_split(K, depth, monkeypatch):
    # the kernel's generation means are those of the omegas the solve
    # draws, redrawn here per generation; their bits do not depend on
    # thread count, block size, subtree splits, the stacked models or
    # rows that share one replica, and asking for them changes no value
    spec = TreeSpec(K=K, L=1.0, depth=depth)
    models = _stack_models("uniform")
    z = complex(2.0, 0.05)
    seed = cut_seed_disk(z, K, 1.0)
    reps = np.arange(9, dtype=np.uint64) * 3 + 1
    for addr in (ROOT_EDGE, ROOT_EDGE.child(K - 1)):
        G = depth - addr.generation + 1
        R, means = solve_root_R_batch(spec, models, z, seed, reps, addr=addr, omega_means=True)
        assert means.shape == (len(models), reps.size, G)
        assert R.tobytes() == solve_root_R_batch(spec, models, z, seed, reps, addr=addr).tobytes()
        for b, dm in enumerate(models):
            redrawn = [
                omega_for_generation(dm, K, addr.generation + j, reps[:, None], addr.path).mean(axis=1)
                for j in range(G)
            ]
            np.testing.assert_allclose(means[b], np.stack(redrawn, axis=-1), rtol=1e-13, atol=1e-16)
            lone = solve_root_R_batch(spec, dm, z, seed, reps, addr=addr, omega_means=True)[1]
            assert lone.tobytes() == means[b].tobytes()
        # smaller budgets split the stack's subtrees at several levels,
        # down to single leaves at 2 * B, into blocks of few rows
        for budget in (spec.edge_count(), 2 * len(models), 100):
            monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", budget)
            for threads in (1, 2):
                got = solve_root_R_batch(
                    spec, models, z, seed, reps, addr=addr, threads=threads, omega_means=True
                )
                assert got[1].tobytes() == means.tobytes()
                assert got[0].tobytes() == R.tobytes()
            # with a capture, the means come last
            _, cap, got = solve_root_R_batch(
                spec, models, z, seed, reps, addr=addr, capture=True, omega_means=True
            )
            assert got.tobytes() == means.tobytes() and len(cap.m_near) == G
            monkeypatch.setattr(wtree.engine, "_BLOCK_ELEMS", 2**18)
        # rows of one replica draw one tree; their means are its means
        _, one = solve_root_R_batch(spec, models[0], z, seed, [reps[4]] * 3, addr=addr, omega_means=True)
        assert one.tobytes() == np.repeat(means[0, 4:5], 3, axis=0).tobytes()


def test_omega_means_off_do_no_work(monkeypatch):
    # without omega_means the kernel never reduces the omegas it draws
    calls = []
    reduce = wtree.engine._generation_sums

    def counting(*args):
        calls.append(args)
        return reduce(*args)

    monkeypatch.setattr(wtree.engine, "_generation_sums", counting)
    spec = TreeSpec(K=2, L=1.0, depth=6)
    dm = DisorderModel(lam=0.1, master_seed=3)
    solve_root_R_batch(spec, dm, complex(2.0, 0.05), 0j, range(20), addr=ROOT_EDGE.child(0))
    assert calls == []
    solve_root_R_batch(
        spec, dm, complex(2.0, 0.05), 0j, range(20), addr=ROOT_EDGE.child(0), omega_means=True
    )
    assert calls
