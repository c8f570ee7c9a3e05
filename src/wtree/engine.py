"""Core recursion engine for WT functions on rooted metric trees.

The forward WT function R = psi'/psi of the square-integrable solution on
the subtree beyond a point is propagated in two equivalent pictures:

* the half-plane picture, where an edge acts by a Moebius map and a
  vertex merge is plain addition of the child values, and
* the unit-disk picture m = (R - i*sqrt(z)) / (R + i*sqrt(z)), where an
  edge of length l multiplies m by exp(2i*sqrt(z)*l) and therefore
  contracts the disk whenever Im sqrt(z) > 0.

Tree solves run in the disk picture, which never overflows, through one
vectorized kernel: it solves the subtree below an edge address one
generation at a time over a batch of replicas.  The single-edge solvers
and R^- are views of that kernel; the half-plane edge step is retained
as an independent cross-check route.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundaryPointError,
    BudgetExceededError,
    MoebiusPoleError,
    NumericalDegeneracyError,
    RowDegeneracyError,
    SingularMergeError,
    SingularTransformError,
    ValidationError,
    WtreeError,
)
from .graphmodel import (
    DisorderModel,
    EdgeAddress,
    ROOT_EDGE,
    TreeSpec,
    _check_address,
    omega_for_generation,
)

__all__ = [
    "HalfPlanePoint",
    "as_point",
    "sqrt_upper",
    "m_from_r",
    "r_from_m",
    "edge_step_m",
    "vertex_merge_m",
    "edge_step_R",
    "cos_sin",
    "solve_root_R",
    "solve_edge_R",
    "solve_root_R_batch",
    "solve_R_minus",
    "boundary_extrapolate",
    "WT_INFINITY",
    "VISIT_BUDGET",
    "DEFAULT_ETA_LADDER",
]

#: WT values live in the closed upper half plane (units 1/length).
WtValue = complex
#: Disk transforms satisfy |m| <= 1.
DiskValue = complex

#: Distinguished value signalling an infinite WT function (a Dirichlet-type pole).
WT_INFINITY = complex(math.inf, 0.0)

#: Default cap on the number of edges a single tree solve may visit.
VISIT_BUDGET = 2**24

#: Default eta ladder for boundary-value extrapolation.
DEFAULT_ETA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)

_OVERFLOW_IM = 340.0


@dataclass(frozen=True)
class HalfPlanePoint:
    """Spectral parameter z = E + i*eta with eta >= 0.

    ``eta == 0`` flags boundary mode: the point stands for the limit
    E + i0, which direct recursion must not evaluate; boundary values are
    produced by extrapolation in eta instead.
    """

    E: float
    eta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.E) and math.isfinite(self.eta)):
            raise ValidationError("spectral point must be finite")
        if self.eta < 0.0:
            raise ValidationError(f"eta must be >= 0, got {self.eta}")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)

    @property
    def boundary_mode(self) -> bool:
        return self.eta == 0.0


def as_point(z) -> HalfPlanePoint:
    """Coerce a complex number or HalfPlanePoint into a HalfPlanePoint."""
    if isinstance(z, HalfPlanePoint):
        return z
    zc = complex(z)
    return HalfPlanePoint(zc.real, zc.imag)


def sqrt_upper(z) -> complex:
    """Square root of z with Im sqrt(z) > 0.

    In boundary mode (eta = 0) only E > 0 is supported and the root is
    the positive real sqrt(E).

    Raises
    ------
    BoundaryPointError
        If eta = 0 and E <= 0.
    """
    p = as_point(z)
    if p.boundary_mode:
        if p.E <= 0.0:
            raise BoundaryPointError(
                f"boundary-mode sqrt requires E > 0, got E = {p.E}"
            )
        return complex(math.sqrt(p.E), 0.0)
    return cmath.sqrt(p.z)


def m_from_r(R: complex, z) -> complex:
    """Unit-disk transform m = (R - i*w) / (R + i*w), w = sqrt_upper(z)."""
    w = sqrt_upper(z)
    if R + 1j * w == 0:
        raise SingularTransformError("m transform evaluated at its pole R = -i*sqrt(z)")
    return _r_to_disk(R, w)


def r_from_m(m: complex, z) -> complex:
    """Inverse disk transform R = i*w*(1 + m) / (1 - m), w = sqrt_upper(z)."""
    w = sqrt_upper(z)
    if m == 1:
        raise SingularTransformError("inverse disk transform evaluated at m = 1")
    return _disk_to_r(m, w)


def edge_step_m(m_far: complex, L_e: float, z) -> complex:
    """Pull a disk value from the far end of an edge to its near end.

    The map is linear, m_near = exp(2i*sqrt(z)*L_e) * m_far, and contracts
    the modulus by exactly exp(-2*L_e*Im sqrt(z)).
    """
    w = sqrt_upper(z)
    return cmath.exp(2j * w * L_e) * m_far


def vertex_merge_m(children, z) -> complex:
    """Merge the K child disk values across a Kirchhoff vertex.

    Equivalent to transforming every child to the half plane, adding the
    WT values, and transforming back.

    Raises
    ------
    SingularMergeError
        If any child sits at the singular point m = 1 (R at infinity).
    """
    zeta = 0.0 + 0.0j
    for m in children:
        den = 1.0 - m
        if den == 0:
            raise SingularMergeError("vertex merge received a child at m = 1")
        zeta += (1.0 + m) / den
    den = zeta + 1.0
    if den == 0:
        raise SingularMergeError("vertex merge hit the singular total zeta = -1")
    return (zeta - 1.0) / den


def cos_sin(w: complex, l: float) -> tuple[complex, complex]:
    """cos(w*l) and sin(w*l) with an explicit overflow guard."""
    x = w * l
    if abs(x.imag) > _OVERFLOW_IM:
        raise NumericalDegeneracyError(
            f"trigonometric edge factors overflow at Im(w*l) = {x.imag:.3g}"
        )
    return cmath.cos(x), cmath.sin(x)


def edge_step_R(R0: complex, l: float, z) -> complex:
    """Forward Moebius evolution of R along an edge of length l.

    R(l) = (R0*cos(w*l) - w*sin(w*l)) / (cos(w*l) + R0*sin(w*l)/w).
    Retained as a cross-check of the disk route; valid while
    Im(sqrt(z))*l stays moderate.

    Raises
    ------
    MoebiusPoleError
        If the denominator vanishes (excluded for eta > 0; signals a
        numerically degenerate evaluation).
    """
    w = sqrt_upper(z)
    c, s = cos_sin(w, l)
    den = c + R0 * s / w
    if den == 0:
        raise MoebiusPoleError("edge propagation denominator vanished")
    out = (R0 * c - w * s) / den
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise MoebiusPoleError("edge propagation produced a non-finite value")
    return out


def _check_seed_m(seed_m: complex) -> complex:
    seed_m = complex(seed_m)
    if not cmath.isfinite(seed_m):
        raise ValidationError(f"truncation seed must be finite, got {seed_m}")
    if abs(seed_m) > 1.0 + 1e-12:
        raise ValidationError(f"truncation seed must satisfy |m| <= 1, got |m| = {abs(seed_m)}")
    if seed_m == 1:
        raise ValidationError("truncation seed m = 1 is the singular point of the merge")
    return seed_m


@dataclass
class BatchCapture:
    """Per-generation arrays captured during a batch solve.

    ``m_near[g]`` and ``lengths[g]`` have shape ``(S, K**g)`` and hold the
    near-end disk values and edge lengths of generation ``g``.
    """

    m_near: list
    lengths: list


def _merge_terms(m: np.ndarray) -> np.ndarray:
    """Merge terms (1 + m) / (1 - m) of disk values, overwriting ``m``.

    The term of a disk value is R / (i*w) for its half-plane value R, so
    the Kirchhoff merge adds terms where the half plane adds R.
    """
    den = 1.0 - m
    m += 1.0
    m /= den
    return m  # den is freed on return: one leaf-sized temporary beside m


def _pairwise_sum(v: np.ndarray, lo: int, n: int) -> np.ndarray:
    """Row sums of ``v[:, lo:lo + n]`` in numpy's pairwise order.

    ``v.sum(axis=1)`` over a short contiguous axis adds sequentially
    below 4 values, in 4 lanes joined as (l0 + l1) + (l2 + l3) plus a
    sequential tail up to 64, and above that splits the run at a multiple
    of 4 values and recurses.  Adding column slices in that order gives
    the same bits at a fraction of the reduction's per-element cost.
    (numpy then adds the total to 0.0, which only turns an exact -0.0
    part into +0.0; the one-value run keeps that, longer runs skip it.)
    """
    if n < 4:
        s = v[:, lo] + v[:, lo + 1] if n > 1 else v[:, lo] + 0.0
        for k in range(lo + 2, lo + n):
            s += v[:, k]
        return s
    if n <= 64:
        m = n - n % 4
        lanes = v[:, lo : lo + m].reshape(-1, m // 4, 4)
        acc = lanes[:, 0] + lanes[:, 1] if m > 4 else lanes[:, 0]
        for i in range(2, m // 4):
            acc += lanes[:, i]
        s = (acc[:, 0] + acc[:, 1]) + (acc[:, 2] + acc[:, 3])
        for k in range(lo + m, lo + n):
            s += v[:, k]
        return s
    n2 = (n - n % 8) // 2
    return _pairwise_sum(v, lo, n2) + _pairwise_sum(v, lo + n2, n - n2)


def _merge_sum(h: np.ndarray) -> np.ndarray:
    """Merged disk values (zeta - 1) / (zeta + 1), zeta the sum of ``h`` over its last axis.

    ``h`` holds the :func:`_merge_terms` of each parent's K children
    along its last axis; the result drops that axis.
    """
    K = h.shape[-1]
    zeta = _pairwise_sum(h.reshape(-1, K), 0, K)
    den = zeta + 1.0
    zeta -= 1.0
    zeta /= den
    return zeta.reshape(h.shape[:-1])


def _lengths(omega, lam: float, L: float):
    """Edge lengths L * exp(lam * omega), computed in place in ``omega``."""
    omega *= lam
    np.exp(omega, out=omega)
    omega *= L
    return omega


def _phase(w, le):
    """Edge phases exp(2i*w*le), the factor that pulls a disk value across an edge."""
    phase = (2j * w) * le
    return np.exp(phase, out=phase)


def _pull(m, w, le):
    """Pull far-end disk values to the near ends, exp(2i*w*le) * m."""
    phase = _phase(w, le)
    # numpy rounds an in-place complex product of a single element
    # differently from an out-of-place one; one-element blocks multiply
    # out of place so that every block gets the out-of-place rounding
    return np.multiply(phase, m, out=phase if phase.size > 1 else None)


def _r_to_disk(R, w):
    """Disk transform (R - i*w) / (R + i*w), for scalars or arrays."""
    return (R - 1j * w) / (R + 1j * w)


def _disk_to_r(m, w):
    """Inverse disk transform i*w*(1 + m) / (1 - m), for scalars or arrays."""
    return 1j * w * (1.0 + m) / (1.0 - m)


def _edge_ratio(R, w, le):
    """Amplitude ratio psi(le) / psi(0) = cos(w*le) + R*sin(w*le)/w across an edge."""
    wl = w * le
    return np.cos(wl) + R * np.sin(wl) / w


def _one_tree(reps):
    """The first row of a replica column whose rows all carry one replica, else the column.

    Rows of one replica draw one tree, so the kernel hashes, draws and
    sizes its edges once per generation, as a ``(1, K**g)`` row that
    :func:`_pull` broadcasts against the per-row ``w``.
    """
    return reps[:1] if reps.shape[0] > 1 and (reps == reps[0]).all() else reps


def _joined(caps, axis):
    """One capture from the captures of row blocks (axis 0) or of sibling subtrees (axis 1)."""
    return BatchCapture(
        m_near=[np.concatenate(g, axis=axis) for g in zip(*(c.m_near for c in caps))],
        lengths=[np.concatenate(g, axis=axis) for g in zip(*(c.lengths for c in caps))],
    )


def _solve_subtree(spec, dm, prefix, w, seed, reps, chunk_elems, capture):
    """Near-end disk values of the edge ``prefix``, one per replica.

    ``w``, ``seed`` and ``reps`` have shape ``(S,)``.  Blocks of replicas
    are solved one generation at a time with at most ``chunk_elems``
    leaves per block; a subtree with more leaves than that is split into
    its K child subtrees, so memory stays linear in depth.  Returns
    ``(m, capture)``, the capture indexed by generation below ``prefix``.
    """
    K = spec.K
    g0 = len(prefix)
    n = spec.depth - g0
    leaves = K**n
    if n > 0 and leaves > chunk_elems:
        kids = [
            _solve_subtree(spec, dm, prefix + (d,), w, seed, reps, chunk_elems, capture)
            for d in range(K)
        ]
        h = _merge_terms(np.stack([m_d for m_d, _ in kids], axis=1))
        merged = _merge_sum(h[:, None, :])
        r = _one_tree(reps[:, None])
        le = _lengths(omega_for_generation(dm, K, g0, r, prefix), dm.lam, spec.L)
        m = _pull(merged, w[:, None], le)
        cap = None
        if capture:
            below = _joined([c for _, c in kids], 1)
            cap = BatchCapture([m] + below.m_near, [np.broadcast_to(le, m.shape)] + below.lengths)
        return m[:, 0], cap

    S = reps.size
    chunk = max(1, chunk_elems // leaves)
    out = np.empty(S, dtype=np.complex128)
    caps = []
    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        r = _one_tree(reps[lo:hi, None])
        wc = w[lo:hi, None]
        m = np.broadcast_to(seed[lo:hi, None], (hi - lo, leaves)).copy()
        cap = BatchCapture([None] * (n + 1), [None] * (n + 1))
        for j in range(n, -1, -1):
            if j < n:
                m = _merge_sum(_merge_terms(m).reshape(hi - lo, -1, K))
            le = _lengths(omega_for_generation(dm, K, g0 + j, r, prefix), dm.lam, spec.L)
            m = _pull(m, wc, le)
            if capture:
                cap.m_near[j] = m.copy()  # the next _merge_terms overwrites m
                # a block of one replica drew its lengths once, for every row
                cap.lengths[j] = np.broadcast_to(le, m.shape) if r.shape[0] < hi - lo else le
        caps.append(cap)
        out[lo:hi] = m[:, 0]
    return out, _joined(caps, 0) if capture else None


_NONFINITE = "tree solve produced non-finite WT values"
_LOWER = "tree solve left the upper half plane"


def _is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, lo: int) -> None:
    if not _is_int(value) or value < lo:
        raise ValidationError(f"{name} must be an integer >= {lo}, got {value!r}")


def _check_threads(threads) -> None:
    _check_count("threads", threads, 1)


def _solve(spec, dm, z, seed_m, replicas, prefix, capture, visit_budget, chunk_elems, threads=1):
    """Validate a solve of the subtree below ``prefix`` and run it.

    With ``threads`` > 1 the replica rows are split into that many
    contiguous parts (at least one row each), solved on a thread pool and
    joined before the one degeneracy check, so values, failed rows and
    their reasons do not depend on the thread count.
    """
    _check_threads(threads)
    if replicas is None:
        replicas = [0]
    replicas = np.asarray(replicas, dtype=np.uint64).ravel()
    S = replicas.size

    if isinstance(z, np.ndarray):
        z_arr = np.asarray(z, dtype=np.complex128).ravel()
        if z_arr.size != S:
            raise ValidationError("per-replica z array must match the replica count")
        if not np.all(np.isfinite(z_arr)):
            raise ValidationError("per-replica z values must be finite")
        if not np.all(z_arr.imag > 0.0):
            raise ValidationError("direct recursion requires eta > 0 at every point")
        w = np.sqrt(z_arr)
    else:
        p = as_point(z)
        if p.boundary_mode:
            raise ValidationError("direct recursion requires eta > 0; boundary values need extrapolation")
        w = np.full(S, sqrt_upper(p), dtype=np.complex128)

    if isinstance(seed_m, np.ndarray):
        seed = np.asarray(seed_m, dtype=np.complex128).ravel()
        if seed.size != S:
            raise ValidationError("per-replica seed array must match the replica count")
        if np.any(np.abs(seed) > 1.0 + 1e-12) or np.any(seed == 1.0):
            raise ValidationError("truncation seeds must satisfy |m| <= 1, m != 1")
    else:
        seed = np.full(S, _check_seed_m(seed_m), dtype=np.complex128)

    n_edges = replace(spec, depth=spec.depth - len(prefix)).edge_count()
    if n_edges > visit_budget:
        raise BudgetExceededError(
            f"tree solve would visit {n_edges} edges, budget is {visit_budget}"
        )

    prefix, chunk_elems = tuple(prefix), int(chunk_elems)

    def part(lo, hi):
        # Degenerate rows (a NaN seed row, a singular merge) are found and
        # named below, so the arithmetic that produces them stays quiet;
        # numpy's error state is per thread, so each part sets its own.
        with np.errstate(all="ignore"):
            return _solve_subtree(
                spec, dm, prefix, w[lo:hi], seed[lo:hi], replicas[lo:hi], chunk_elems, capture
            )

    cuts = np.linspace(0, S, min(threads, S) + 1).astype(int)
    if cuts.size <= 2:
        m, cap = part(0, S)
    else:
        with ThreadPoolExecutor(max_workers=cuts.size - 1) as ex:
            parts = list(ex.map(part, cuts[:-1], cuts[1:]))
        m = np.concatenate([m_p for m_p, _ in parts])
        cap = _joined([c for _, c in parts], 0) if capture else None
    with np.errstate(all="ignore"):
        out = _disk_to_r(m, w)
    finite = np.isfinite(out)
    bad = ~(finite & (out.imag > 0.0))
    if bad.any():
        reasons = [_NONFINITE if not f else _LOWER if b else None for f, b in zip(finite, bad)]
        out[bad] = complex(math.nan, math.nan)
        raise RowDegeneracyError(_LOWER if finite.all() else _NONFINITE, out, reasons)
    return (out, cap) if capture else out


def _failed_rows(exc: WtreeError, n: int):
    """Root values and per-row status ("ok" or error text) after ``exc``.

    A :class:`RowDegeneracyError` fails only the rows it names; any
    other error fails all ``n`` rows.
    """
    if isinstance(exc, RowDegeneracyError):
        prefix = f"{NumericalDegeneracyError.__name__}: "
        return exc.values, ["ok" if r is None else prefix + r for r in exc.reasons]
    return np.full(n, complex(math.nan, math.nan)), [f"{type(exc).__name__}: {exc}"] * n


_CHUNK_ELEMS = 2**20


def solve_edge_R(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    addr: EdgeAddress = ROOT_EDGE,
    seed_m: complex = 0j,
    replica: int = 0,
    visit_budget: int = VISIT_BUDGET,
) -> complex:
    """WT value at the near end of the edge ``addr`` of a truncated tree.

    Backward recursion in the disk picture: every edge of generation
    ``spec.depth`` is seeded with ``seed_m`` at its far end, deeper ends
    merge their children, and each edge applies the disk step with its
    own random length.  This is a one-replica view of the batch kernel
    behind :func:`solve_root_R_batch`, whose working memory is bounded
    by its chunk size and grows linearly in depth.

    Parameters
    ----------
    spec, dm : TreeSpec, DisorderModel
    z : HalfPlanePoint or complex
        Spectral parameter with eta > 0.
    addr : EdgeAddress
        Edge whose near end is evaluated; the recursion covers the
        subtree hanging from it (truncated at the global depth).
    seed_m : complex
        Far-end disk seed at the cut generation, |m| <= 1, m != 1.
    replica : int
        Disorder replica index.
    visit_budget : int
        Hard cap on visited edges.

    Returns
    -------
    complex
        R at the near end; Im R > 0.
    """
    _check_address(spec, addr)
    R = _solve(spec, dm, z, seed_m, [replica], addr.path, False, visit_budget, _CHUNK_ELEMS)
    return complex(R[0])


def solve_root_R(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    seed_m: complex = 0j,
    replica: int = 0,
    visit_budget: int = VISIT_BUDGET,
) -> complex:
    """WT value at the near end of the root edge; see :func:`solve_edge_R`."""
    return solve_edge_R(spec, dm, z, ROOT_EDGE, seed_m, replica, visit_budget)


def solve_root_R_batch(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    seed_m=0j,
    replicas=None,
    capture: bool = False,
    visit_budget: int = VISIT_BUDGET,
    chunk_elems: int = _CHUNK_ELEMS,
    threads: int = 1,
    addr: EdgeAddress = ROOT_EDGE,
):
    """Vectorized root solves across disorder replicas.

    Runs the backward recursion one generation at a time over a batch of
    replicas.  Edge lengths come from the address-based counter stream,
    so every replica's tree is the one :func:`edge_length` describes.
    Rows may share a replica (one tree at many z, say): a block whose
    rows all carry one replica hashes and sizes that tree's edges once
    per generation, and each row gets the bits it would get alone.

    Parameters
    ----------
    spec, dm : TreeSpec, DisorderModel
    z : complex, HalfPlanePoint, or np.ndarray
        Spectral parameter(s) with eta > 0; an array gives one point per
        replica.
    seed_m : complex or np.ndarray
        Far-end disk seed, scalar or one value per replica.
    replicas : array_like of int
        Replica indices; defaults to ``[0]``.
    capture : bool
        Also return per-generation near-end values and lengths.
    chunk_elems : int
        Target working-set size (array elements) used to chunk the batch;
        trees with more leaves than this are solved subtree by subtree.
    threads : int
        Worker threads, >= 1: the rows are split into contiguous parts
        solved on a thread pool.  Values, captures and failed rows are
        the same at any thread count.
    addr : EdgeAddress
        Edge whose near end is evaluated, the root edge by default; the
        batch form of :func:`solve_edge_R`, with the capture indexed by
        generation below ``addr``.

    Returns
    -------
    np.ndarray or (np.ndarray, BatchCapture)
        WT values at the near end of ``addr``, shape ``(len(replicas),)``.

    Raises
    ------
    ValidationError
        Before any solve, for invalid z, seeds, budget, ``threads`` or
        ``addr``.
    RowDegeneracyError
        When some rows (a NaN seed row, say) come out non-finite or with
        Im R <= 0.  Its ``values`` hold every row, NaN where one failed,
        and its ``reasons`` the failure text per row, None where good.
    """
    _check_address(spec, addr)
    return _solve(
        spec, dm, z, seed_m, replicas, addr.path, capture, visit_budget, chunk_elems, threads
    )


def solve_R_minus(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    target: EdgeAddress = ROOT_EDGE,
    position: float = 0.0,
    replica: int = 0,
    seed_m: complex = 0j,
    visit_budget: int = VISIT_BUDGET,
) -> complex:
    """Backward WT function R^- at a point of the tree.

    R^- = -psi'/psi of the solution determined by the root condition and
    by the sibling subtrees passed on the walk from the root to
    ``target``.  The pair (psi, psi') is propagated projectively, so the
    Dirichlet root value (alpha = 0, R^- infinite) is handled exactly;
    at the root near end itself that case returns :data:`WT_INFINITY`.

    Crossing a vertex into child f adds every sibling's forward WT value
    to psi'/psi.  Path lengths and sibling values are read from one
    captured solve of the whole replica tree, so ``visit_budget`` caps
    that tree's edge count and memory grows with it.

    Raises
    ------
    ValidationError
        For boundary-mode z or out-of-range targets or positions.
    """
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("direct recursion requires eta > 0; boundary values need extrapolation")
    _check_address(spec, target)
    alpha = spec.alpha
    if alpha == 0.0 and target.generation == 0 and position == 0.0:
        return WT_INFINITY

    w = sqrt_upper(p)
    K = spec.K
    _, cap = _solve(spec, dm, p, seed_m, [replica], (), True, visit_budget, _CHUNK_ELEMS)

    def _propagate(uv, upv, length):
        c, s = cos_sin(w, length)
        return uv * c + upv * s / w, -uv * w * s + upv * c

    u = complex(math.sin(alpha))
    up = complex(math.cos(alpha))
    i = 0  # index of the current edge within its generation
    for g, d in enumerate(target.path):
        u, up = _propagate(u, up, float(cap.lengths[g][0, i]))
        kids = cap.m_near[g + 1][0, i * K : (i + 1) * K]
        sib_sum = sum(r_from_m(complex(kids[j]), p) for j in range(K) if j != d)
        up = up - sib_sum * u
        i = i * K + d

    le_target = float(cap.lengths[target.generation][0, i])
    if not 0.0 <= position <= le_target:
        raise ValidationError(
            f"position {position} outside the target edge of length {le_target}"
        )
    u, up = _propagate(u, up, position)
    if u == 0 or not (cmath.isfinite(u) and cmath.isfinite(up)):
        raise NumericalDegeneracyError("backward solution degenerated while propagating")
    out = -up / u
    if not cmath.isfinite(out):
        raise NumericalDegeneracyError("backward WT value is non-finite")
    return out


def _eta_intercept(etas, values):
    """Value at eta = 0 of the least-squares line through ``(etas, values)``.

    ``values`` holds one row per eta; every remaining axis is fitted on
    its own, in closed form.
    """
    x = np.asarray(etas, dtype=float)
    y = np.asarray(values)
    dx = (x - x.mean()).reshape((-1,) + (1,) * (y.ndim - 1))
    y_mean = y.mean(axis=0)
    slope = (dx * (y - y_mean)).sum(axis=0) / (dx * dx).sum()
    return y_mean - slope * x.mean()


def _eta_ladder(etas) -> list:
    """The ladder as floats, checked to hold at least two distinct finite etas > 0.

    Fewer distinct etas leave the line fit of :func:`_eta_intercept`
    undetermined (its slope divides by zero).
    """
    etas = [float(t) for t in etas]
    if len(set(etas)) < 2 or not all(0.0 < t < math.inf for t in etas):
        raise ValidationError(
            f"eta ladder needs at least two distinct finite positive entries, got {etas}"
        )
    return etas


def boundary_extrapolate(fn, E: float, etas=DEFAULT_ETA_LADDER):
    """Boundary value at E + i0 via a linear fit over a decreasing eta ladder.

    Parameters
    ----------
    fn : callable
        Maps a complex z (eta > 0) to a complex or float value.
    E : float
        Real energy.
    etas : sequence of float
        Finite positive ladder with at least two distinct entries; the
        fit value at eta = 0 is returned.

    Returns
    -------
    complex
        Extrapolated boundary value.
    """
    etas = _eta_ladder(etas)
    vals = np.asarray([complex(fn(complex(E, t))) for t in etas])
    return complex(_eta_intercept(etas, vals))
