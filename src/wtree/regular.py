"""Spectral analysis of the clean (non-random) homogeneous tree.

On the tree with constant edge length L and branching K the decaying
solution carries one disk value m on every edge, a root of a quadratic
self-consistency equation with bounded coefficients; the multiplier of
the disk map at m yields the clean Lyapunov exponent.  The absolutely
continuous spectrum consists of bands
[( (pi*n + theta)/L )^2, ( (pi*(n+1) - theta)/L )^2] with
theta = arctan((sqrt(K) - 1/sqrt(K)) / 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    _disk_to_r,
    _merge_sum,
    _merge_terms,
    as_point,
    edge_step_m,
    sqrt_upper,
    vertex_merge_m,
)
from .errors import BoundaryPointError, ValidationError
from .graphmodel import _check_count

__all__ = [
    "BandList",
    "ac_bands",
    "FixedPoint",
    "FixedPointBatch",
    "fixed_point_R",
    "fixed_point_batch",
    "gamma_clean",
    "stationary_disk",
    "cut_seed_disk",
    "iterate_m_map",
    "linear_response",
    "band_theta",
    "EDGE_SHIFT",
]

#: Shift applied to boundary-mode energies that sit within EDGE_SHIFT of a band edge.
EDGE_SHIFT = 1e-9


def band_theta(K: int) -> float:
    """Band offset angle arctan((sqrt(K) - 1/sqrt(K)) / 2)."""
    _check_count("K", K, 1)
    rk = math.sqrt(K)
    return math.atan((rk - 1.0 / rk) / 2.0)


@dataclass(frozen=True)
class BandList:
    """AC spectral bands of the clean tree, ordered by energy."""

    K: int
    L: float
    theta: float
    intervals: tuple

    def contains(self, E: float) -> bool:
        return any(a <= E <= b for a, b in self.intervals)

    def band_index(self, E: float):
        """Index of the band containing E, or None."""
        for i, (a, b) in enumerate(self.intervals):
            if a <= E <= b:
                return i
        return None


def ac_bands(K: int, L: float, n_max: int) -> BandList:
    """First n_max + 1 AC bands of the clean tree.

    Band n spans [((pi*n + theta)/L)^2, ((pi*(n+1) - theta)/L)^2]; for
    K = 1 (the half line) theta = 0 and the bands tile [0, inf).
    Endpoints are evaluated in extended precision and rounded once, so
    each float is the correctly rounded value of the exact expression.
    """
    _check_count("K", K, 1)
    if L <= 0 or not math.isfinite(L):
        raise ValidationError(f"edge length must be positive, got {L}")
    _check_count("n_max", n_max, 0)
    import mpmath  # loaded on first use, not with the package

    with mpmath.workdps(40):
        rk = mpmath.sqrt(K)
        th = mpmath.atan((rk - 1 / rk) / 2)
        Lm = mpmath.mpf(L)
        intervals = []
        for n in range(n_max + 1):
            a = ((mpmath.pi * n + th) / Lm) ** 2
            b = ((mpmath.pi * (n + 1) - th) / Lm) ** 2
            intervals.append((float(a), float(b)))
        theta = float(th)
    return BandList(K=K, L=L, theta=theta, intervals=tuple(intervals))


@dataclass(frozen=True)
class FixedPoint:
    """Solution of the clean self-consistency equation at one point.

    ``m`` is the stationary near-end disk value and ``phi`` its WT value.
    ``z_used`` is the point actually evaluated; it differs from the
    request only when a boundary-mode energy was nudged off a band edge
    (``shifted`` is then True).  ``residual`` is the absolute value of
    the disk quadratic at ``m``.
    """

    phi: complex
    m: complex
    residual: float
    z_used: complex
    shifted: bool = False


def _shift_off_edges(E: np.ndarray, K: int, L: float):
    """Boundary-mode energies nudged off any band edge within EDGE_SHIFT, and which moved.

    The nearest edge in x = sqrt(E)*L is taken among the six of bands
    n-1, n and n+1, n = floor(x/pi), the first on a tie; an energy within
    EDGE_SHIFT of it moves to EDGE_SHIFT beyond the edge on its own side.
    """
    if K == 1:
        return E.copy(), np.zeros(E.size, dtype=bool)
    th = band_theta(K)
    x = np.sqrt(E) * L
    k = np.floor(x / math.pi)[:, None] + np.array([-1.0, 0.0, 1.0])
    xe = np.stack([k * math.pi + th, (k + 1.0) * math.pi - th], axis=-1).reshape(E.size, 6)
    dist = np.where(xe > 0, np.abs(x[:, None] - xe), np.inf)
    x_edge = np.take_along_axis(xe, dist.argmin(axis=1)[:, None], axis=1)[:, 0]
    E_edge = (x_edge / L) ** 2
    shifted = np.abs(E - E_edge) < EDGE_SHIFT
    moved = np.where(E >= E_edge, E_edge + EDGE_SHIFT, E_edge - EDGE_SHIFT)
    return np.where(shifted, moved, E), shifted


def fixed_point_R(z, K: int, L: float) -> FixedPoint:
    """Stationary WT value Phi of the clean tree and its disk value m.

    One generation of the clean tree merges K children at m and pulls
    the result through an edge of length L, which must reproduce m; see
    :func:`fixed_point_batch` for the quadratic and the root selection.

    Boundary-mode energies closer than :data:`EDGE_SHIFT` to a band edge
    are nudged off the edge first (the two roots collide there).  This is
    a one-point view of :func:`fixed_point_batch`.
    """
    p = as_point(z)
    fp = fixed_point_batch(np.array([p.E]), p.eta, K, L)
    return FixedPoint(
        phi=complex(fp.phi[0]),
        m=complex(fp.m[0]),
        residual=float(fp.residual[0]),
        z_used=complex(fp.z_used[0]),
        shifted=bool(fp.shifted[0]),
    )


@dataclass(frozen=True)
class FixedPointBatch:
    """Vectorized :class:`FixedPoint` over an energy grid."""

    phi: np.ndarray
    m: np.ndarray
    residual: np.ndarray
    z_used: np.ndarray
    shifted: np.ndarray


def fixed_point_batch(E, eta: float, K: int, L: float) -> FixedPointBatch:
    """Clean fixed points on a real energy grid at fixed eta >= 0.

    The stationary disk value solves m = q * merge(m, ..., m) with
    q = exp(2i*w*L), w = sqrt(z), that is

        (K-1) m^2 + (K+1)(1-q) m - (K-1) q = 0,

    whose coefficients are bounded for every eta >= 0.  Of the two roots
    the one with the smaller |m| * |lambda(m)| is kept, lambda being the
    multiplier of the disk map at m: the attracting root for eta > 0 and
    in the gaps at eta = 0, the root inside the disk in the bands.
    Non-finite energies, eta < 0 and non-finite eta raise
    ``ValidationError`` before any arithmetic.
    """
    _check_count("K", K, 1)
    if L <= 0 or not math.isfinite(L):
        raise ValidationError(f"edge length must be positive, got {L}")
    E = np.asarray(E, dtype=float).ravel()
    if not (math.isfinite(eta) and eta >= 0):
        raise ValidationError(f"eta must be finite and >= 0, got {eta}")
    if not np.all(np.isfinite(E)):
        raise ValidationError("fixed-point energies must be finite")
    shifted = np.zeros(E.size, dtype=bool)
    if eta == 0.0:
        if np.any(E <= 0.0):
            raise BoundaryPointError("boundary-mode evaluation requires E > 0")
        Eu, shifted = _shift_off_edges(E, K, L)
        z = Eu.astype(np.complex128)
        w = np.sqrt(Eu).astype(np.complex128)
    else:
        z = E + 1j * eta
        w = np.sqrt(z)
    m, residual = _disk_root(np.exp(2j * w * L), K)
    return FixedPointBatch(
        phi=_disk_to_r(m, w), m=m, residual=residual, z_used=z, shifted=shifted
    )


def _disk_root(q, K: int):
    """Selected root m of the disk quadratic at phases q, and its residual.

    With lambda(m) = 4Kq / d^2, d = (K+1) + (K-1) m, the product
    |m| * |lambda| is compared cross-multiplied, which needs no case for
    q = 0 or for a root at the merge pole d = 0 (section 4 of
    docs/derivations.md).  K = 1 gives m = 0.
    """
    if K == 1:
        return np.zeros_like(q), np.zeros(q.shape)
    a = K - 1.0
    b = (K + 1.0) * (1.0 - q)
    c = -a * q
    # the larger-magnitude half of -b -+ sqrt first, then its mate c / qq
    sq = np.sqrt(b * b - 4.0 * a * c)
    sign = np.where((np.conj(b) * sq).real >= 0.0, 1.0, -1.0)
    qq = -(b + sign * sq) / 2.0
    r1 = qq / a
    r2 = c / qq
    d1 = np.abs((K + 1.0) + a * r1)
    d2 = np.abs((K + 1.0) + a * r2)
    m = np.where(np.abs(r1) * d2 * d2 <= np.abs(r2) * d1 * d1, r1, r2)
    return m, np.abs((a * m + b) * m + c)


def gamma_clean(z, K: int, L: float) -> float:
    """Clean Lyapunov exponent gamma0 = -1/2 log|lambda(m)|.

    lambda(m) = 4Kq / d^2 is the multiplier of the disk map at the
    stationary value, so gamma0 = Im(w)*L + log|d| - 1/2 log(4K) with
    d = (K+1) + (K-1) m.  It vanishes (to rounding) inside the AC bands at
    eta = 0, is strictly positive for eta > 0 and in the gaps, and
    depends on (E, L) only through x = sqrt(z)*L up to the exact period
    pi.
    """
    p = as_point(z)
    return _gamma0(fixed_point_batch(np.array([p.E]), p.eta, K, L), K, L)[0]


def _gamma0(fp: FixedPointBatch, K: int, L: float) -> list:
    """:func:`gamma_clean` at every point of a fixed-point batch, from its own m and z_used."""
    c = 0.5 * math.log(4.0 * K)
    # scalar math per point: numpy's complex abs and log can round differently
    return [
        sqrt_upper(complex(z)).imag * L + math.log(abs((K + 1.0) + (K - 1.0) * complex(m))) - c
        for m, z in zip(fp.m, fp.z_used)
    ]


def stationary_disk(z, K: int, L: float) -> complex:
    """Stationary disk value m of the clean tree.

    This is the near-end value every edge of the clean tree carries; it
    is the right seed for population pools, whose members stand for
    near-end samples.
    """
    return fixed_point_R(z, K, L).m


def cut_seed_disk(z, K: int, L: float) -> complex:
    """Merge of K stationary disk values, the clean continuation across a cut.

    A truncated tree solve places its seed at the far end of the last
    generation, where the clean tree would contribute the merged value
    of K stationary children.  Seeding with this value makes the solve
    return Phi exactly at lam = 0 (and suppresses the truncation
    transient at small lam); seeding with the near-end value would leave
    an O(1) deficit that decays only like exp(-2*gamma0) per generation.
    """
    return complex(_cut_seed(fixed_point_R(z, K, L).m, K))


def _cut_seed(m, K: int):
    """Merge of K copies of the stationary disk value m, for scalars or arrays.

    This is the far-end cut seed of :func:`cut_seed_disk`.
    """
    children = np.repeat(np.asarray(m, dtype=np.complex128)[..., None], K, axis=-1)
    return _merge_sum(_merge_terms(children))


def linear_response(z, K: int, L: float, depth: int, omega_var: float):
    """First-order response of a cut-seeded clean subtree to its generation means, and C_J.

    Give every edge of generation g of a clean subtree (its top edge is
    g = 1) the length L * exp(lam * omega).  To first order in lam, log
    Im R at the top's near end moves by lam * sum_g c_g * xbar_g, xbar_g
    the mean omega of generation g, g = 1..``depth``, for a subtree
    seeded at its cut with :func:`cut_seed_disk`.  The disk map
    linearizes in closed form at the stationary value m (near end) and
    its merge m_f (far end): a pull exp(2i*w*le) * m_f moves by 2i*w *
    exp(2i*w*L) * m_f = 2i*w*m per unit of le / L; a merge moves by
    ((1 + h) / (K*h + 1))**2 per child, with h = (1 + m) / (1 - m) the
    child's :func:`_merge_terms`, so a generation whose K**(g-1) edges
    all move passes lam_d**(g-1) of it up, lam_d = K * exp(2i*w*L) *
    ((1 + h) / (K*h + 1))**2 the multiplier of the disk map; and log Im
    R, R = i*w*h, moves by Im(i*w * (1 + h)**2 / 2 * dm) / Im R.

    The Jensen part of a direct sample is, to second order, a quarter of
    the population variance over the K children of their lam * sum_g
    c_g * xbar_g; with iid omegas of variance ``omega_var`` its mean is
    lam**2 * C_J, C_J = 1/4 * (K-1)/K * omega_var * sum_g c_g**2 *
    K**-(g-1) (docs/derivations section 5).  C_J is 0 for K = 1.

    Returns
    -------
    (np.ndarray, float)
        c_1..c_depth, and C_J.
    """
    _check_count("K", K, 1)
    _check_count("depth", depth, 0)
    p = as_point(z)
    w = sqrt_upper(p)
    m = fixed_point_R(p, K, L).m
    h = complex(_merge_terms(np.array([m]))[0])
    step = K * cmath.exp(2j * w * L) * ((1.0 + h) / (K * h + 1.0)) ** 2
    top = 1j * w * (1.0 + h) ** 2 / 2.0 * (2j * w * L * m) / (1j * w * h).imag
    c = np.array([(top * step**j).imag for j in range(depth)])
    c_j = 0.25 * (K - 1) / K * omega_var * float(np.sum(c * c / float(K) ** np.arange(depth)))
    return c, c_j


def iterate_m_map(z, K: int, L: float, m0: complex = 0j, n_steps: int = 100) -> complex:
    """Iterate the clean disk self-consistency map n_steps times from m0.

    One step merges K copies of the current disk value across a vertex
    and propagates through one edge of length L.  For eta > 0 the step
    contracts toward the stationary disk value.
    """
    p = as_point(z)
    _check_count("K", K, 1)
    _check_count("n_steps", n_steps, 0)
    m = complex(m0)
    for _ in range(n_steps):
        m = edge_step_m(vertex_merge_m([m] * K, p), L, p)
    return m
