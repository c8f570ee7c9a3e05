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
    "band_theta",
    "EDGE_SHIFT",
]

#: Shift applied to boundary-mode energies that sit within EDGE_SHIFT of a band edge.
EDGE_SHIFT = 1e-9


def band_theta(K: int) -> float:
    """Band offset angle arctan((sqrt(K) - 1/sqrt(K)) / 2)."""
    if K < 1:
        raise ValidationError(f"branching number must be >= 1, got {K}")
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
    if L <= 0 or not math.isfinite(L):
        raise ValidationError(f"edge length must be positive, got {L}")
    if n_max < 0:
        raise ValidationError(f"n_max must be >= 0, got {n_max}")
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


def _nearest_edge_x(x: float, theta: float) -> float:
    """Band-edge location in x = sqrt(E)*L nearest to x (K >= 2)."""
    n = math.floor(x / math.pi)
    best = None
    for k in (n - 1, n, n + 1):
        for xe in (k * math.pi + theta, (k + 1) * math.pi - theta):
            if xe <= 0:
                continue
            if best is None or abs(x - xe) < abs(x - best):
                best = xe
    return best


def _shift_off_edge(E: float, K: int, L: float):
    """Nudge a boundary-mode energy off a band edge if within EDGE_SHIFT."""
    if K == 1 or E <= 0:
        return E, False
    th = band_theta(K)
    xe = _nearest_edge_x(math.sqrt(E) * L, th)
    E_edge = (xe / L) ** 2
    if abs(E - E_edge) < EDGE_SHIFT:
        E = E_edge + EDGE_SHIFT if E >= E_edge else E_edge - EDGE_SHIFT
        return E, True
    return E, False


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
    """
    if K < 1:
        raise ValidationError(f"branching number must be >= 1, got {K}")
    if L <= 0 or not math.isfinite(L):
        raise ValidationError(f"edge length must be positive, got {L}")
    E = np.asarray(E, dtype=float).ravel()
    if eta < 0:
        raise ValidationError(f"eta must be >= 0, got {eta}")
    shifted = np.zeros(E.size, dtype=bool)
    if eta == 0.0:
        if np.any(E <= 0.0):
            raise BoundaryPointError("boundary-mode evaluation requires E > 0")
        Eu = E.copy()
        for i, Ei in enumerate(E):
            Eu[i], shifted[i] = _shift_off_edge(Ei, K, L)
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
    fp = fixed_point_R(z, K, L)
    d = (K + 1.0) + (K - 1.0) * fp.m
    return sqrt_upper(fp.z_used).imag * L + math.log(abs(d)) - 0.5 * math.log(4.0 * K)


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


def iterate_m_map(z, K: int, L: float, m0: complex = 0j, n_steps: int = 100) -> complex:
    """Iterate the clean disk self-consistency map n_steps times from m0.

    One step merges K copies of the current disk value across a vertex
    and propagates through one edge of length L.  For eta > 0 the step
    contracts toward the stationary disk value.
    """
    p = as_point(z)
    m = complex(m0)
    for _ in range(n_steps):
        m = edge_step_m(vertex_merge_m([m] * K, p), L, p)
    return m
