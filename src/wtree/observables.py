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
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .engine import (
    WT_INFINITY,
    _check_seed_m,
    _disk_to_r,
    _edge_ratio,
    _failed_rows,
    _phase,
    _transfer,
    as_point,
    solve_root_R_batch,
    sqrt_upper,
)
from .errors import NumericalDegeneracyError, SingularTransformError, ValidationError, WtreeError
from .graphmodel import DisorderModel, TreeSpec, _check_count, _check_model, _check_word
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
    return green_diag(R_plus, _root_R_minus(alpha))


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


def _edge_solution(R0: complex, psi0: complex, t: np.ndarray, z):
    """psi and the current Im(conj(psi) psi') at the positions ``t`` along an edge.

    Each position is one phase-scaled transfer step from the near-end
    data (psi0, R0 * psi0), times exp(-i*w*t) to undo the scaling.  A
    value beyond the float range (psi grows like exp(Im(w) t) away from
    R0 = i*w) raises ``NumericalDegeneracyError``.
    """
    w = sqrt_upper(z)
    with np.errstate(all="ignore"):
        u, up = _transfer(psi0, R0 * psi0, w, _phase(w, t))
        unscale = np.exp(np.multiply(-1j * w, t))
        psi = u * unscale
        J = (psi.conjugate() * (up * unscale)).imag
    if not (np.isfinite(psi).all() and np.isfinite(J).all()):
        raise NumericalDegeneracyError(
            f"edge solution beyond the float range at Im(w)*t = {w.imag * t.max():.3g}"
        )
    return psi, J


def _check_edge_length(l) -> float:
    """An edge length or position as a float, checked to be finite and >= 0."""
    l = float(l)
    if not 0.0 <= l < math.inf:
        raise ValidationError(f"edge length must be finite and >= 0, got {l}")
    return l


def edge_psi_ratio(R0: complex, l: float, z) -> complex:
    """Amplitude ratio psi(l) / psi(0) = cos(w*l) + R0 * sin(w*l) / w.

    R0 is the WT value at the near end of the edge.  One phase-scaled
    transfer step (docs/derivations.md section 7); where the ratio or its
    current leaves the float range (for R0 away from i*w, from Im(w)*l of
    about 350 on) it raises ``NumericalDegeneracyError``, and an l outside
    [0, inf) ``ValidationError``.
    """
    l = _check_edge_length(l)
    return complex(_edge_solution(R0, 1.0, np.array([l]), z)[0][0])


def wt_bound(z, L_e: float) -> float:
    """Deterministic bound 2*sqrt|z| / (1 - exp(-2*L_e*Im sqrt(z))) on |R|.

    Holds for the near-end WT value of an edge of length L_e whatever
    the subtree beyond it contributes (any far-end |m| <= 1).  Requires
    eta > 0 and 0 < L_e < inf.
    """
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("the WT bound requires eta > 0")
    if not 0.0 < L_e < math.inf:
        raise ValidationError(f"edge length must be positive and finite, got {L_e}")
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

    The forward solution is evolved from the near-end data (psi0,
    R0 * psi0) by the phase-scaled transfer matrix (docs/derivations.md
    section 7); for eta > 0 the samples are non-increasing in position.
    A current beyond the float range raises ``NumericalDegeneracyError``,
    an l outside [0, inf) or ``n_pts`` not an integer >= 2 ``ValidationError``.
    """
    _check_count("n_pts", n_pts, 2)
    t = _check_edge_length(l) * np.arange(n_pts) / (n_pts - 1)
    _, J = _edge_solution(R0, psi0, t, z)
    return [Current(J=float(j), position=float(x)) for j, x in zip(J, t)]


@dataclass(frozen=True)
class DensityPoint:
    """Spectral-density sample at z = E + i*eta.

    ``status`` is "ok" for a clean evaluation.  A failed sweep point
    carries NaN values and the error text instead of aborting the sweep:
    "NumericalDegeneracyError: ..." for a tree solve that degenerated at
    this point alone, or the text of an error that failed the whole
    sweep (such as ``BudgetExceededError``).
    """

    E: float
    eta: float
    rho: float
    im_R: float
    abs_r: float
    status: str = "ok"


def _seed_array(spec: TreeSpec, energies: np.ndarray, eta: float, mode: str) -> np.ndarray:
    """Cut seeds at z = energies + i*eta for the named seed mode."""
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

    One tree (replica ``replica``) is drawn once and solved at every grid
    point z = E + i*eta, in one kernel call.  Far ends of the cut
    generation are seeded with the clean-tree fixed-point disk value by
    default, which is exact for lam = 0 and suppresses the truncation
    transient for small lam.

    Parameters
    ----------
    replica : int
        Disorder replica index, 0 <= replica < 2**64.
    seed_mode : str
        "fixed_point" (the default above) or "disk_zero", m = 0 at the cut.
    threads : int
        Worker threads of the tree kernel, which splits the grid into
        contiguous parts; results are identical for any thread count.

    Returns
    -------
    list of DensityPoint
    """
    _check_model(dm)
    energies = np.asarray(energies, dtype=float).ravel()
    if not 0.0 < eta < math.inf:
        raise ValidationError(f"spectral density sweeps require 0 < eta < inf, got {eta}")
    if not np.all(np.isfinite(energies)):
        raise ValidationError("spectral density energies must be finite")
    _check_word("replica", replica)
    _check_count("threads", threads, 1)  # here, since the solve's errors become point statuses
    seeds = _seed_array(spec, energies, eta, seed_mode)
    z_arr = energies + 1j * eta
    reps = np.full(energies.size, replica, dtype=np.uint64)
    try:
        R = solve_root_R_batch(spec, dm, z_arr, seeds, reps, threads=threads)
        status = ["ok"] * energies.size
    except WtreeError as exc:
        R, status = _failed_rows(exc, energies.size)
    R_minus = _root_R_minus(spec.alpha)
    out = []
    for E, z, R_i, st in zip(energies, z_arr, R, status):
        if st != "ok":
            out.append(DensityPoint(float(E), eta, math.nan, math.nan, math.nan, st))
            continue
        G = green_diag(R_i, R_minus)
        r = reflection_coeff(R_i, R_minus, z)
        out.append(DensityPoint(float(E), eta, G.imag / math.pi, R_i.imag, abs(r)))
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

    Per generation g: ``R_near[g]``, ``m_near[g]``, ``psi_near[g]``,
    ``lengths[g]`` are arrays of length K**g with the WT value, disk
    value, amplitude, and length of every edge (near end), in address
    order.  ``R_far_cut`` is the seed WT value applied beyond the cut
    generation.
    """

    z: complex
    K: int
    depth: int
    R_near: list
    m_near: list
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
    extended by continuity across vertices.  Every edge's WT value and
    amplitude ratio is taken from the captured solve in one array pass;
    only the products of the ratios run generation by generation.  An
    array z or ``seed_m`` raises ``ValidationError``.
    """
    _check_model(dm)
    p = as_point(z)
    seed_m = _check_seed_m(seed_m)
    w = sqrt_upper(p)
    _, cap = solve_root_R_batch(spec, dm, p.z, seed_m, [replica], capture=True)
    K = spec.K
    # every edge at once, generation-major: generation g is edges starts[g]:starts[g + 1]
    starts = list(accumulate((K**g for g in range(spec.depth + 1)), initial=0))
    m = np.concatenate([x[0] for x in cap.m_near])
    R = _disk_to_r(m, w)
    le = np.concatenate([x[0] for x in cap.lengths])
    gens = list(zip(starts, starts[1:]))
    R_near, m_near, lengths = ([a[lo:hi] for lo, hi in gens] for a in (R, m, le))
    # the far end of an edge is the Kirchhoff sum of its children's near ends
    inner = starts[-2]
    ratio = _edge_ratio(R[:inner], R[1:].reshape(-1, K).sum(axis=1), w, le[:inner])
    psi_near = [np.ones(1, dtype=np.complex128)]
    for g in range(spec.depth):
        psi_end = psi_near[g] * ratio[starts[g] : starts[g + 1]]
        psi_near.append(np.repeat(psi_end, K))
    return TreeProfile(
        z=p.z,
        K=spec.K,
        depth=spec.depth,
        R_near=R_near,
        m_near=m_near,
        psi_near=psi_near,
        lengths=lengths,
        R_far_cut=_disk_to_r(seed_m, w),
    )


def vertex_current_mismatch(profile: TreeProfile) -> float:
    """Worst relative current-conservation violation over internal vertices.

    At each vertex the far-end current of the parent edge must equal the
    sum over children of their near-end currents; returns
    max |J_parent - sum J_children| / J_parent, NaN if any term is NaN.
    The parent's far-end disk value is m_near / q, its own near-end value
    over its phase, so the check exercises the merge identity instead of
    restating it; both currents are divided by |psi|^2 at the vertex.

    A vertex whose parent phase q or a child amplitude lies below the
    normal float range (deep in a tree at large eta) contributes 0: its
    digits test nothing.  From eta of about 2.5e5 at unit length on, no
    q is normal (from about 2.8e5 q = 0 and m_near = 0 whatever the far
    end holds), so the result is 0.  See docs/derivations.md section 7.
    """
    w = sqrt_upper(profile.z)
    tiny = np.finfo(float).tiny
    K = profile.K
    # every generation at once: the children of edge k are row k of [1:].reshape(-1, K)
    R, m, psi, le = map(
        np.concatenate, (profile.R_near, profile.m_near, profile.psi_near, profile.lengths)
    )
    n = R.size - K**profile.depth  # the edges with children
    q = _phase(w, le[:n])
    psi_kids, R_kids = psi[1:].reshape(-1, K), R[1:].reshape(-1, K)
    # NaN compares False, so a NaN vertex stays checked
    live = ~((np.abs(q) < tiny) | (np.abs(psi_kids) < tiny).any(axis=1))
    R, m, psi, le, q = (a[:n][live] for a in (R, m, psi, le, q))
    R_end = _disk_to_r(m / q, w)
    psi_end = psi * _edge_ratio(R, R_end, w, le)
    J_kids = (np.abs(psi_kids[live] / psi_end[:, None]) ** 2 * R_kids[live].imag).sum(axis=1)
    rel = np.abs(R_end.imag - J_kids) / np.abs(R_end.imag)
    return float(rel.max(initial=0.0))
