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
from dataclasses import dataclass

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
    "symmetric_tilde",
    "symmetric_tilde_inverse",
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
    den = R + 1j * w
    if den == 0:
        raise SingularTransformError("m transform evaluated at its pole R = -i*sqrt(z)")
    return (R - 1j * w) / den


def r_from_m(m: complex, z) -> complex:
    """Inverse disk transform R = i*w*(1 + m) / (1 - m), w = sqrt_upper(z)."""
    w = sqrt_upper(z)
    den = 1.0 - m
    if den == 0:
        raise SingularTransformError("inverse disk transform evaluated at m = 1")
    return 1j * w * (1.0 + m) / den


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


def symmetric_tilde(R: complex, beta_v: float) -> complex:
    """Rotated WT value -1 / (cot(beta_v) + R) for symmetric vertex conditions.

    ``beta_v = 0`` is the Kirchhoff case and returns R unchanged.
    """
    if beta_v == 0.0:
        return R
    if not 0.0 < beta_v < math.pi:
        raise ValidationError(f"beta_v must lie in [0, pi), got {beta_v}")
    ct = math.cos(beta_v) / math.sin(beta_v)
    den = ct + R
    if den == 0:
        raise SingularTransformError("tilde rotation evaluated at its pole R = -cot(beta)")
    return -1.0 / den


def symmetric_tilde_inverse(R_tilde: complex, beta_v: float) -> complex:
    """Inverse of :func:`symmetric_tilde`."""
    if beta_v == 0.0:
        return R_tilde
    if not 0.0 < beta_v < math.pi:
        raise ValidationError(f"beta_v must lie in [0, pi), got {beta_v}")
    if R_tilde == 0:
        raise SingularTransformError("inverse tilde rotation evaluated at R_tilde = 0")
    ct = math.cos(beta_v) / math.sin(beta_v)
    return -1.0 / R_tilde - ct


def _subtree_edge_count(K: int, depth_local: int) -> int:
    if K == 1:
        return depth_local + 1
    return (K ** (depth_local + 1) - 1) // (K - 1)


def _check_seed_m(seed_m: complex) -> complex:
    seed_m = complex(seed_m)
    if not cmath.isfinite(seed_m):
        raise ValidationError(f"truncation seed must be finite, got {seed_m}")
    if abs(seed_m) > 1.0 + 1e-12:
        raise ValidationError(f"truncation seed must satisfy |m| <= 1, got |m| = {abs(seed_m)}")
    if seed_m == 1:
        raise ValidationError("truncation seed m = 1 is the singular point of the merge")
    return seed_m


def _check_kirchhoff(spec: TreeSpec) -> None:
    if not spec.vertex_bc.is_kirchhoff:
        raise ValidationError(
            "the recursion merges Kirchhoff vertices; apply symmetric_tilde to "
            "reduce symmetric conditions first"
        )


@dataclass
class BatchCapture:
    """Per-generation arrays captured during a batch solve.

    ``m_near[g]`` and ``lengths[g]`` have shape ``(S, K**g)`` and hold the
    near-end disk values and edge lengths of generation ``g``.
    """

    m_near: list
    lengths: list


def _merge(m: np.ndarray, K: int) -> np.ndarray:
    """Merge every run of K sibling disk values along the last axis, overwriting ``m``."""
    den = 1.0 - m
    m += 1.0
    m /= den
    del den  # freed before the sums, so at most two leaf-sized arrays are alive
    zeta = m.reshape(m.shape[0], -1, K).sum(axis=2)
    return (zeta - 1.0) / (zeta + 1.0)


def _edge_phase(spec, dm, m, g, prefix, w, reps):
    """Pull far-end disk values of generation ``g`` to the near ends."""
    le = omega_for_generation(dm, spec.K, g, reps, prefix)
    le *= dm.lam
    np.exp(le, out=le)
    le *= spec.L
    phase = (2j * w) * le
    np.exp(phase, out=phase)
    # numpy rounds an in-place complex product of a single element
    # differently from an out-of-place one; one-element blocks multiply
    # out of place so that every block gets the out-of-place rounding
    return np.multiply(phase, m, out=phase if phase.size > 1 else None), le


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
        merged = _merge(np.stack([m_d for m_d, _ in kids], axis=1), K)
        m, le = _edge_phase(spec, dm, merged, g0, prefix, w[:, None], reps[:, None])
        cap = None
        if capture:
            cap = BatchCapture(m_near=[m], lengths=[le])
            for j in range(n):
                cap.m_near.append(np.concatenate([c.m_near[j] for _, c in kids], axis=1))
                cap.lengths.append(np.concatenate([c.lengths[j] for _, c in kids], axis=1))
        return m[:, 0], cap

    S = reps.size
    chunk = max(1, chunk_elems // leaves)
    out = np.empty(S, dtype=np.complex128)
    cap_m = [[] for _ in range(n + 1)]
    cap_len = [[] for _ in range(n + 1)]
    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        r = reps[lo:hi, None]
        wc = w[lo:hi, None]
        m = np.broadcast_to(seed[lo:hi, None], (hi - lo, leaves)).copy()
        for j in range(n, -1, -1):
            if j < n:
                m = _merge(m, K)
            m, le = _edge_phase(spec, dm, m, g0 + j, prefix, wc, r)
            if capture:
                cap_m[j].append(m.copy())  # the next _merge overwrites m
                cap_len[j].append(le)
        out[lo:hi] = m[:, 0]
    cap = None
    if capture:
        cap = BatchCapture(
            m_near=[np.concatenate(blocks, axis=0) for blocks in cap_m],
            lengths=[np.concatenate(blocks, axis=0) for blocks in cap_len],
        )
    return out, cap


_NONFINITE = "tree solve produced non-finite WT values"
_LOWER = "tree solve left the upper half plane"


def _solve(spec, dm, z, seed_m, replicas, prefix, capture, visit_budget, chunk_elems):
    """Validate a solve of the subtree below ``prefix`` and run it."""
    _check_kirchhoff(spec)
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

    n_edges = _subtree_edge_count(spec.K, spec.depth - len(prefix))
    if n_edges > visit_budget:
        raise BudgetExceededError(
            f"tree solve would visit {n_edges} edges, budget is {visit_budget}"
        )

    # Degenerate rows (a NaN seed row, a singular merge) are found and
    # named below, so the arithmetic that produces them stays quiet.
    with np.errstate(all="ignore"):
        m, cap = _solve_subtree(spec, dm, tuple(prefix), w, seed, replicas, int(chunk_elems), capture)
        out = 1j * w * (1.0 + m) / (1.0 - m)
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
):
    """Vectorized root solves across disorder replicas.

    Runs the backward recursion one generation at a time over a batch of
    replicas.  Edge lengths come from the address-based counter stream,
    so every replica's tree is the one :func:`edge_length` describes.

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

    Returns
    -------
    np.ndarray or (np.ndarray, BatchCapture)
        Root WT values, shape ``(len(replicas),)``.

    Raises
    ------
    RowDegeneracyError
        When some rows (a NaN seed row, say) come out non-finite or with
        Im R <= 0.  Its ``values`` hold every row, NaN where one failed,
        and its ``reasons`` the failure text per row, None where good.
    """
    return _solve(spec, dm, z, seed_m, replicas, (), capture, visit_budget, chunk_elems)


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
        For boundary-mode z, out-of-range targets or positions, or
        non-Kirchhoff vertex conditions (use the tilde rotation to reduce
        those).
    """
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("direct recursion requires eta > 0; boundary values need extrapolation")
    _check_kirchhoff(spec)
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


def boundary_extrapolate(fn, E: float, etas=DEFAULT_ETA_LADDER):
    """Boundary value at E + i0 via a linear fit over a decreasing eta ladder.

    Parameters
    ----------
    fn : callable
        Maps a complex z (eta > 0) to a complex or float value.
    E : float
        Real energy.
    etas : sequence of float
        Strictly positive ladder; the fit value at eta = 0 is returned.

    Returns
    -------
    complex
        Extrapolated boundary value.
    """
    etas = [float(t) for t in etas]
    if len(etas) < 2 or any(t <= 0 for t in etas):
        raise ValidationError("eta ladder needs at least two positive entries")
    vals = np.asarray([complex(fn(complex(E, t))) for t in etas])
    return complex(_eta_intercept(etas, vals))
