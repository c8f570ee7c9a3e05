"""Diagonal Green function, spectral density, and probability currents.

With R^+ the forward WT value and R^- the backward one at a point x,
the diagonal Green function is G(x, x) = -1 / (R^+ + R^-) and the local
spectral density is Im G / pi.  The probability current of the forward
solution, J = |psi|^2 Im R, is conserved across vertices exactly and is
non-increasing along edges for eta > 0; those two laws are the main
consistency checks on a solved tree.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import (
    WT_INFINITY,
    _disk_to_r,
    _edge_ratio,
    _failed_rows,
    _r_to_disk,
    as_point,
    cos_sin,
    solve_root_R_batch,
    sqrt_upper,
)
from .errors import SingularTransformError, ValidationError, WtreeError
from .graphmodel import DisorderModel, TreeSpec
from .regular import _cut_seed, fixed_point_batch

__all__ = [
    "GREEN_POLE",
    "green_diag",
    "green_root",
    "reflection_coeff",
    "edge_psi_ratio",
    "wt_bound",
    "Current",
    "current",
    "current_profile",
    "DensityPoint",
    "spectral_density",
    "band_support",
    "TreeProfile",
    "tree_profile",
    "vertex_current_mismatch",
]


#: Distinguished return value of :func:`green_diag` when R^+ + R^- = 0,
#: which at real E marks a pole of G (an eigenvalue), not a failure.
GREEN_POLE = complex(math.inf, math.inf)


def green_diag(R_plus: complex, R_minus: complex) -> complex:
    """Diagonal Green function -1 / (R^+ + R^-).

    An infinite backward value (:data:`WT_INFINITY`, the Dirichlet pole)
    gives G = 0 exactly; a vanishing denominator returns
    :data:`GREEN_POLE`.
    """
    if R_minus == WT_INFINITY or R_plus == WT_INFINITY:
        return 0j
    S = R_plus + R_minus
    if S == 0:
        return GREEN_POLE
    return -1.0 / S


def green_root(R_plus: complex, alpha: float) -> complex:
    """Diagonal Green function at the root for boundary angle alpha.

    The root condition cos(alpha) psi(0) = sin(alpha) psi'(0) fixes the
    backward value R^- = -cot(alpha); alpha = 0 is the Dirichlet case
    with G = 0.
    """
    if not 0.0 <= alpha < math.pi:
        raise ValidationError(f"alpha must lie in [0, pi), got {alpha}")
    if alpha == 0.0:
        return 0j
    return green_diag(R_plus, -math.cos(alpha) / math.sin(alpha))


def reflection_coeff(R_plus: complex, R_minus: complex, z) -> complex:
    """Reflection coefficient (i*w - S) / (i*w + S) with S = R^+ + R^-.

    |r| < 1 exactly when Im S > 0; real S gives |r| = 1.  An infinite
    S returns -1.
    """
    if R_minus == WT_INFINITY or R_plus == WT_INFINITY:
        return complex(-1.0)
    w = sqrt_upper(z)
    S = R_plus + R_minus
    den = 1j * w + S
    if den == 0:
        raise SingularTransformError("reflection coefficient evaluated at its pole S = -i*sqrt(z)")
    return (1j * w - S) / den


def edge_psi_ratio(R0: complex, l: float, z) -> complex:
    """Amplitude ratio psi(l) / psi(0) = cos(w*l) + R0 * sin(w*l) / w.

    R0 is the WT value at the near end of the edge.
    """
    w = sqrt_upper(z)
    c, s = cos_sin(w, l)
    return c + R0 * s / w


def wt_bound(z, L_e: float) -> float:
    """Deterministic bound 2*sqrt|z| / (1 - exp(-2*L_e*Im sqrt(z))) on |R|.

    Holds for the near-end WT value of an edge of length L_e whatever
    the subtree beyond it contributes (any far-end |m| <= 1).
    """
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("the WT bound requires eta > 0")
    w = sqrt_upper(p)
    return 2.0 * abs(w) / (1.0 - math.exp(-2.0 * L_e * w.imag))


@dataclass(frozen=True)
class Current:
    """Probability current J = |psi|^2 Im R at a position along an edge."""

    J: float
    position: float


def current(R: complex, psi_ratio_sq: float, position: float = 0.0) -> Current:
    """Probability current of the forward solution at one point."""
    return Current(J=psi_ratio_sq * R.imag, position=position)


def current_profile(R0: complex, psi0: complex, l: float, z, n_pts: int = 10):
    """Current samples along one edge, from its near end to its far end.

    The forward solution is evolved by the transfer matrix from the
    near-end data (psi0, R0 * psi0); for eta > 0 the samples are
    non-increasing in position.
    """
    if n_pts < 2:
        raise ValidationError("current profile needs at least 2 sample points")
    w = sqrt_upper(z)
    out = []
    for k in range(n_pts):
        t = l * k / (n_pts - 1)
        c, s = cos_sin(w, t)
        psi = psi0 * (c + R0 * s / w)
        dpsi = psi0 * (-w * s + R0 * c)
        out.append(Current(J=(psi.conjugate() * dpsi).imag, position=t))
    return out


@dataclass(frozen=True)
class DensityPoint:
    """Spectral-density sample at z = E + i*eta.

    ``status`` is "ok" for a clean evaluation.  A failed sweep point
    carries NaN values and the error text instead of aborting the sweep:
    "NumericalDegeneracyError: ..." for a tree solve that degenerated at
    this point alone, or the text of an error that failed its whole
    chunk (such as ``BudgetExceededError``).
    """

    E: float
    eta: float
    rho: float
    im_R: float
    abs_r: float
    status: str = "ok"


def _seed_array(spec: TreeSpec, energies: np.ndarray, eta: float, mode: str) -> np.ndarray:
    if mode == "disk_zero":
        return np.zeros(energies.size, dtype=np.complex128)
    if mode == "fixed_point":
        return _cut_seed(fixed_point_batch(energies, eta, spec.K, spec.L).m, spec.K)
    raise ValidationError(f"unknown seed mode {mode!r}; use 'fixed_point' or 'disk_zero'")


def spectral_density(
    spec: TreeSpec,
    dm: DisorderModel,
    energies,
    eta: float,
    replica: int = 0,
    seed_mode: str = "fixed_point",
    threads: int = 1,
):
    """Root spectral density rho = Im G(0,0) / pi on an energy grid.

    One tree (one replica) is solved per grid point at z = E + i*eta.
    Far ends of the cut generation are seeded with the clean-tree
    fixed-point disk value by default, which is exact for lam = 0 and
    suppresses the truncation transient for small lam.

    Parameters
    ----------
    threads : int
        Number of worker threads; the grid is split into contiguous
        chunks, and results are identical for any thread count.

    Returns
    -------
    list of DensityPoint
    """
    energies = np.asarray(energies, dtype=float).ravel()
    if not 0.0 < eta < math.inf:
        raise ValidationError(f"spectral density sweeps require 0 < eta < inf, got {eta}")
    if not np.all(np.isfinite(energies)):
        raise ValidationError("spectral density energies must be finite")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    seeds = _seed_array(spec, energies, eta, seed_mode)
    z_arr = energies + 1j * eta
    reps = np.full(energies.size, replica, dtype=np.uint64)

    def point_row(i, R, status):
        E = float(energies[i])
        if status != "ok":
            return DensityPoint(E, eta, math.nan, math.nan, math.nan, status)
        G = green_root(R, spec.alpha)
        r = reflection_coeff(R, _root_R_minus(spec.alpha), z_arr[i])
        return DensityPoint(E, eta, G.imag / math.pi, R.imag, abs(r))

    def solve_chunk(lo, hi):
        try:
            R = solve_root_R_batch(spec, dm, z_arr[lo:hi], seeds[lo:hi], reps[lo:hi])
            status = ["ok"] * (hi - lo)
        except WtreeError as exc:
            R, status = _failed_rows(exc, hi - lo)
        return [point_row(i, R[i - lo], status[i - lo]) for i in range(lo, hi)]

    if threads == 1 or energies.size < 2:
        return solve_chunk(0, energies.size)
    bounds = np.linspace(0, energies.size, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(solve_chunk, bounds[k], bounds[k + 1]) for k in range(threads)]
        out = []
        for f in futures:
            out.extend(f.result())
    return out


def _root_R_minus(alpha: float) -> complex:
    """Backward WT value fixed by the root condition, R^- = -cot(alpha)."""
    if alpha == 0.0:
        return WT_INFINITY
    return complex(-math.cos(alpha) / math.sin(alpha))


def band_support(points, threshold_frac: float = 0.01, threshold: float = None):
    """Endpoints of the widest contiguous high-density run of a sweep.

    Points with rho above ``threshold_frac`` times the sweep maximum
    (or above the absolute ``threshold`` when given) count as inside the
    support; returns (E_low, E_high) of the longest run, skipping failed
    points.  The density vanishes like a square root at a band edge, so
    the threshold must sit well below the bulk scale; the default trades
    edge bias (quadratic in the threshold) against leakage into the
    exponentially small off-band tails.
    """
    pts = [p for p in points if p.status == "ok" and math.isfinite(p.rho)]
    if not pts:
        raise ValidationError("no valid density points to scan")
    thr = threshold if threshold is not None else threshold_frac * max(p.rho for p in pts)
    best = None
    run_start = None
    prev = None
    for p in pts:
        if p.rho > thr:
            if run_start is None:
                run_start = p
            prev = p
        else:
            if run_start is not None:
                if best is None or prev.E - run_start.E > best[1] - best[0]:
                    best = (run_start.E, prev.E)
                run_start = None
    if run_start is not None:
        if best is None or prev.E - run_start.E > best[1] - best[0]:
            best = (run_start.E, prev.E)
    if best is None:
        raise ValidationError("density sweep has no points above the threshold")
    return best


@dataclass
class TreeProfile:
    """Forward solution on one sampled tree.

    Per generation g: ``R_near[g]``, ``psi_near[g]``, ``lengths[g]`` are
    arrays of length K**g with the WT value, amplitude, and length of
    every edge (near end), in address order.  ``R_far_cut`` is the seed
    WT value applied beyond the cut generation.
    """

    z: complex
    K: int
    depth: int
    R_near: list
    psi_near: list
    lengths: list
    R_far_cut: complex


def tree_profile(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    replica: int = 0,
    seed_m: complex = 0j,
) -> TreeProfile:
    """Solve one replica and reconstruct the forward solution everywhere.

    The amplitude is normalized to psi = 1 at the root near end and
    extended by continuity across vertices.
    """
    p = as_point(z)
    w = sqrt_upper(p)
    _, cap = solve_root_R_batch(
        spec,
        dm,
        p.z,
        seed_m,
        np.asarray([replica], dtype=np.uint64),
        capture=True,
    )
    R_near = [_disk_to_r(m[0], w) for m in cap.m_near]
    lengths = [le[0] for le in cap.lengths]
    psi_near = [np.ones(1, dtype=np.complex128)]
    for g in range(spec.depth):
        psi_end = psi_near[g] * _edge_ratio(R_near[g], w, lengths[g])
        psi_near.append(np.repeat(psi_end, spec.K))
    return TreeProfile(
        z=p.z,
        K=spec.K,
        depth=spec.depth,
        R_near=R_near,
        psi_near=psi_near,
        lengths=lengths,
        R_far_cut=_disk_to_r(complex(seed_m), w),
    )


def vertex_current_mismatch(profile: TreeProfile) -> float:
    """Worst relative current-conservation violation over internal vertices.

    At each vertex the far-end current of the parent edge must equal the
    sum over children of their near-end currents; returns
    max |J_parent - sum J_children| / J_parent.
    """
    w = sqrt_upper(profile.z)
    worst = 0.0
    K = profile.K
    for g in range(profile.depth):
        R0 = profile.R_near[g]
        psi0 = profile.psi_near[g]
        le = profile.lengths[g]
        psi_end = psi0 * _edge_ratio(R0, w, le)
        # Far-end value from the parent's own disk variable, so the check
        # exercises the merge identity instead of restating it.
        m_far = _r_to_disk(R0, w) * np.exp(-2j * w * le)
        R_end = _disk_to_r(m_far, w)
        J_parent = np.abs(psi_end) ** 2 * R_end.imag
        J_children = (
            np.abs(profile.psi_near[g + 1]) ** 2 * profile.R_near[g + 1].imag
        ).reshape(-1, K).sum(axis=1)
        rel = np.max(np.abs(J_parent - J_children) / np.abs(J_parent))
        worst = max(worst, float(rel))
    return worst
