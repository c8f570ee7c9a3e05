"""Spectral analysis of the clean (non-random) homogeneous tree.

On the tree with constant edge length L and branching K the forward WT
function of the decaying solution is constant along the tree and solves
a quadratic self-consistency equation; its multiplier yields the clean
Lyapunov exponent.  The absolutely continuous spectrum consists of bands
[( (pi*n + theta)/L )^2, ( (pi*(n+1) - theta)/L )^2] with
theta = arctan((sqrt(K) - 1/sqrt(K)) / 2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .engine import as_point, sqrt_upper, edge_step_m, vertex_merge_m
from .errors import BoundaryPointError, SelectionFailureError, ValidationError

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
    "iterate_m_grid",
    "band_theta",
    "EDGE_SHIFT",
]

#: Shift applied to boundary-mode energies that sit within EDGE_SHIFT of a band edge.
EDGE_SHIFT = 1e-9

# width of the window standing in for the unrepresentable sin(w*L) = 0
_DEGENERATE_S = 1e-13


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

    ``z_used`` is the point actually evaluated; it differs from the
    request only when a boundary-mode energy was nudged off a band edge
    (``shifted`` is then True).  ``residual`` is the absolute value of
    the defining quadratic at ``phi``.
    """

    phi: complex
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
    """Stationary WT value Phi of the clean tree.

    Phi solves (K*s/w) Phi^2 + (K-1)*c Phi + w*s = 0 with c = cos(w*L),
    s = sin(w*L), w = sqrt_upper(z): the condition that the merged value
    of K identical children propagated through one edge reproduces
    itself.  Root selection picks the decaying branch: the unique root
    with Im Phi > 0 when one exists, otherwise the root with the smaller
    edge multiplier |c + Phi*s/w| (the attracting one).

    Boundary-mode energies closer than :data:`EDGE_SHIFT` to a band edge
    are nudged off the edge first (the two roots collide there).  This is
    a one-point view of :func:`fixed_point_batch`.

    Raises
    ------
    SelectionFailureError
        If no finite root is admissible (the trigonometric factors
        overflow).
    """
    p = as_point(z)
    fp = fixed_point_batch(np.array([p.E]), p.eta, K, L)
    phi = complex(fp.phi[0])
    if not (math.isfinite(phi.real) and math.isfinite(phi.imag)):
        raise SelectionFailureError(f"no admissible fixed-point root at z = {p.z}")
    return FixedPoint(
        phi=phi,
        residual=float(fp.residual[0]),
        z_used=complex(fp.z_used[0]),
        shifted=bool(fp.shifted[0]),
    )


@dataclass(frozen=True)
class FixedPointBatch:
    """Vectorized :class:`FixedPoint` over an energy grid."""

    phi: np.ndarray
    residual: np.ndarray
    z_used: np.ndarray
    shifted: np.ndarray


def fixed_point_batch(E, eta: float, K: int, L: float) -> FixedPointBatch:
    """Clean fixed points on a real energy grid at fixed eta >= 0.

    Vectorized form of :func:`fixed_point_R`, with the same root
    selection.  Points whose trigonometric factors overflow carry a
    non-finite ``phi``.
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

    with np.errstate(all="ignore"):
        c = np.cos(w * L)
        s = np.sin(w * L)
        A = K * s / w
        B = (K - 1.0) * c
        C = w * s
        # Roots of A x^2 + B x + C without cancellation.
        sq = np.sqrt(B * B - 4.0 * A * C)
        sign = np.where((np.conj(B) * sq).real >= 0.0, 1.0, -1.0)
        qq = -(B + sign * sq) / 2.0
        r1 = np.where(qq == 0, 0j, qq / np.where(A == 0, 1.0, A))
        r2 = np.where(qq == 0, 0j, C / np.where(qq == 0, 1.0, qq))
        pos1 = r1.imag > 0.0
        pos2 = r2.imag > 0.0
        u1 = np.abs(c + r1 * s / w)
        u2 = np.abs(c + r2 * s / w)
        phi = np.where(pos1 != pos2, np.where(pos1, r1, r2), np.where(u1 <= u2, r1, r2))
        residual = np.abs(A * phi * phi + B * phi + C)
        # Boundary mode at w*L = n*pi only (eta > 0 keeps |s| >= sinh of
        # the imaginary part).  The exact degeneracy is not representable,
        # so an ulp-scale window stands in for s = 0; the quadratic there
        # is rounding noise.  K = 1 keeps the free decaying value; K >= 2
        # degenerates to the linear equation (K-1)*c*Phi = 0.
        degenerate = np.abs(s) <= _DEGENERATE_S * np.maximum(1.0, np.abs(w) * L)
    phi = np.where(degenerate, 1j * w if K == 1 else 0j, phi)
    residual = np.where(degenerate, 0.0, residual)
    return FixedPointBatch(phi=phi, residual=residual, z_used=z, shifted=shifted)


def gamma_clean(z, K: int, L: float) -> float:
    """Clean Lyapunov exponent -log(sqrt(K)) - log|c + Phi*s/w|.

    Vanishes identically (to rounding) inside the AC bands at eta = 0,
    is strictly positive for eta > 0 and in the gaps, and depends on
    (E, L) only through x = sqrt(z)*L up to the exact period pi.
    """
    fp = fixed_point_R(z, K, L)
    w = sqrt_upper(fp.z_used)
    c = cmath.cos(w * L)
    s = cmath.sin(w * L)
    ratio = c + fp.phi * s / w
    return -0.5 * math.log(K) - math.log(abs(ratio))


def stationary_disk(z, K: int, L: float) -> complex:
    """Disk transform of the stationary WT value Phi.

    This is the near-end value every edge of the clean tree carries; it
    is the right seed for population pools, whose members stand for
    near-end samples.
    """
    p = as_point(z)
    w = sqrt_upper(p)
    phi = fixed_point_R(p, K, L).phi
    return (phi - 1j * w) / (phi + 1j * w)


def cut_seed_disk(z, K: int, L: float) -> complex:
    """Disk transform of K*Phi, the clean continuation across a cut.

    A truncated tree solve places its seed at the far end of the last
    generation, where the clean tree would contribute the merged value
    of K stationary children.  Seeding with this value makes the solve
    return Phi exactly at lam = 0 (and suppresses the truncation
    transient at small lam); seeding with the near-end value would leave
    an O(1) deficit that decays only like exp(-2*gamma0) per generation.
    """
    p = as_point(z)
    return _cut_seed(fixed_point_R(p, K, L).phi, sqrt_upper(p), K)


def _cut_seed(phi, w, K: int):
    """Disk transform of K*phi at sqrt(z) = w, for scalars or arrays.

    This is the far-end cut seed of :func:`cut_seed_disk` for a given
    stationary value phi.  A non-finite phi (an overflowed fixed point)
    gives a NaN seed, which a tree solve reports as a failed row.
    """
    with np.errstate(invalid="ignore"):
        return (K * phi - 1j * w) / (K * phi + 1j * w)


def iterate_m_map(z, K: int, L: float, m0: complex = 0j, n_steps: int = 100) -> complex:
    """Iterate the clean disk self-consistency map n_steps times from m0.

    One step merges K copies of the current disk value across a vertex
    and propagates through one edge of length L.  For eta > 0 the step
    contracts toward the disk image of the stationary WT value.
    """
    p = as_point(z)
    m = complex(m0)
    for _ in range(n_steps):
        m = edge_step_m(vertex_merge_m([m] * K, p), L, p)
    return m


def iterate_m_grid(
    E,
    eta: float,
    K: int,
    L: float,
    m0: complex = 0j,
    tol: float = 1e-13,
    max_iter: int = 200_000,
):
    """Converged clean disk fixed points on an energy grid.

    Iterates the map of :func:`iterate_m_map` pointwise until the step
    size drops below ``tol``, freezing converged points.  Returns
    ``(m, iterations, converged)`` arrays.
    """
    E = np.asarray(E, dtype=float).ravel()
    if eta <= 0:
        raise ValidationError("grid iteration requires eta > 0")
    z = E + 1j * eta
    w = np.sqrt(z)
    phase = np.exp(2j * w * L)
    m = np.full(E.size, complex(m0), dtype=np.complex128)
    iterations = np.zeros(E.size, dtype=np.int64)
    active = np.ones(E.size, dtype=bool)
    for _ in range(max_iter):
        if not active.any():
            break
        ma = m[active]
        h = (1.0 + ma) / (1.0 - ma)
        zeta = K * h
        merged = (zeta - 1.0) / (zeta + 1.0)
        m_new = phase[active] * merged
        delta = np.abs(m_new - ma)
        m[active] = m_new
        iterations[active] += 1
        still = delta >= tol
        idx = np.nonzero(active)[0]
        active[idx[~still]] = False
    return m, iterations, ~active
