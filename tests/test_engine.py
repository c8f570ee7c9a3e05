import cmath
import math
import warnings

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
    MoebiusPoleError,
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
    edge_step_R,
    edge_step_m,
    fixed_point_R,
    gamma_clean,
    m_from_r,
    r_from_m,
    solve_R_minus,
    solve_edge_R,
    solve_root_R,
    solve_root_R_batch,
    sqrt_upper,
    stationary_disk,
    vertex_merge_m,
    wt_bound,
)
import wtree.engine
from wtree.engine import _eta_intercept, _merge_sum, _merge_terms, _pairwise_sum, cos_sin
from wtree.errors import NumericalDegeneracyError


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


def test_cos_sin_overflow_guard():
    with pytest.raises(NumericalDegeneracyError):
        cos_sin(complex(0.0, 400.0), 1.0)


def test_edge_step_R_basics():
    z = complex(2.0, 0.5)
    w = sqrt_upper(z)
    r0 = complex(0.7, 1.1)
    assert edge_step_R(r0, 0.0, z) == r0
    # iw is the fixed point of the flow
    assert abs(edge_step_R(1j * w, 2.3, z) - 1j * w) < 1e-12
    # semigroup property
    a = edge_step_R(edge_step_R(r0, 0.4, z), 0.9, z)
    b = edge_step_R(r0, 1.3, z)
    assert abs(a - b) < 1e-10


def test_edge_step_R_pole():
    z = complex(2.0, 0.0)  # boundary keeps the trig factors real
    with pytest.raises(MoebiusPoleError):
        # R0 = -w*cot(w*l) makes the denominator c + R0*s/w vanish at l
        w = sqrt_upper(z)
        l = 0.8
        c, s_ = cmath.cos(w * l), cmath.sin(w * l)
        edge_step_R(-w * c / s_, l, z)


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


ORACLE_TREES = [(1, 7), (2, 6), (3, 4)]


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


def test_subtree_split_matches_default():
    # chunk_elems below the leaf count forces the kernel to solve child
    # subtrees and merge them; results and captures must not change
    z = complex(2.2, 0.03)
    for K, depth in ORACLE_TREES:
        spec = TreeSpec(K=K, L=1.0, depth=depth)
        dm = DisorderModel(lam=0.15, master_seed=3)
        seed = cut_seed_disk(z, K, 1.0)
        full, cap = solve_root_R_batch(spec, dm, z, seed, range(5), capture=True)
        for chunk in (1, K + 1, K**2):
            split, cap_s = solve_root_R_batch(
                spec, dm, z, seed, range(5), capture=True, chunk_elems=chunk
            )
            assert np.allclose(split, full, rtol=1e-13, atol=0.0)
            for g in range(depth + 1):
                assert np.array_equal(cap_s.lengths[g], cap.lengths[g])
                assert np.allclose(cap_s.m_near[g], cap.m_near[g], rtol=0.0, atol=1e-13)
        expect = _half_plane_R(spec, dm, z, (), r_from_m(seed, z), 2)
        assert _close(solve_root_R_batch(spec, dm, z, seed, [2], chunk_elems=1)[0], expect)


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
            assert abs(cap.lengths[g][0, i] - le) < 1e-15
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
    # one block, blocks of 4 and 2 rows, and subtree splits
    for chunk in (2**20, 4 * leaves, 2 * leaves, K + 1, 1):
        drawn_rows.clear()
        R, cap = solve_root_R_batch(spec, dm, zs, seeds, reps, capture=True, chunk_elems=chunk)
        assert drawn_rows == {1}
        for i in range(zs.size):
            one, cap_1 = solve_root_R_batch(
                spec, dm, zs[i], seeds[i], [replica], capture=True, chunk_elems=chunk
            )
            assert R[i] == one[0] == solve_root_R(spec, dm, complex(zs[i]), seeds[i], replica)
            for g in range(depth + 1):
                assert cap.m_near[g][i].tobytes() == cap_1.m_near[g][0].tobytes()
                assert cap.lengths[g][i].tobytes() == cap_1.lengths[g][0].tobytes()
        for g in range(depth + 1):
            assert cap.lengths[g].shape == cap.m_near[g].shape == (zs.size, K**g)
            # edge_length's scalar exp may differ from numpy's in the last bit
            expect = [edge_length(spec, dm, EdgeAddress(a), replica) for a in _addresses(K, g)]
            assert np.allclose(cap.lengths[g], expect, rtol=1e-15, atol=0.0)


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


def test_solve_R_minus_rejects_missing_edges():
    spec = TreeSpec(K=2, L=1.0, depth=3)
    dm = DisorderModel(lam=0.1)
    z = complex(2.0, 0.1)
    for path in [(5,), (0, 2), (-1,), (0, 0, 0, 0)]:
        with pytest.raises(ValidationError):
            solve_R_minus(spec, dm, z, target=EdgeAddress(path))


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


def test_merge_sum_matches_numpy_sum():
    # the slice sums follow numpy's pairwise order: sequential below 4
    # siblings, four lanes up to 64, recursive halving above
    rng = np.random.default_rng(8)
    for K in range(1, 131):
        for S, N in [(5, K), (3, K * K)]:
            mag = 10.0 ** rng.uniform(-8, 8, size=(S, N))
            m = (rng.standard_normal((S, N)) + 1j * rng.standard_normal((S, N))) * mag
            zeta = m.reshape(S, -1, K).sum(axis=2)
            got = _pairwise_sum(m.reshape(-1, K), 0, K).reshape(S, -1)
            assert got.tobytes() == zeta.tobytes(), K
            merged = _merge_sum(m.reshape(S, -1, K))
            assert merged.tobytes() == ((zeta - 1.0) / (zeta + 1.0)).tobytes(), K
    m = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    h = m.copy()
    assert _merge_terms(h) is h
    assert h.tobytes() == ((1.0 + m) / (1.0 - m)).tobytes()
