"""Independent reference computations shared by the test modules."""

import math

import numpy as np

from wtree import ValidationError, band_theta
from wtree.regular import EDGE_SHIFT


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

    Iterates the clean disk map (merge K copies across a vertex, then
    pull through one edge of length L) pointwise until the step size
    drops below ``tol``, freezing converged points.  Returns
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


def shift_off_edge(E: float, K: int, L: float):
    """One boundary-mode energy nudged off a band edge, the scalar loop.

    Of the edges x = k*pi + theta and (k+1)*pi - theta, k = n-1, n, n+1,
    n = floor(sqrt(E)*L/pi), the nearest positive one in x = sqrt(E)*L is
    taken (the first on a tie); an energy closer than EDGE_SHIFT to it
    moves to EDGE_SHIFT beyond it on its own side.  Returns (E, shifted).
    """
    if K == 1 or E <= 0:
        return E, False
    th = band_theta(K)
    x = math.sqrt(E) * L
    n = math.floor(x / math.pi)
    best = None
    for k in (n - 1, n, n + 1):
        for xe in (k * math.pi + th, (k + 1) * math.pi - th):
            if xe > 0 and (best is None or abs(x - xe) < abs(x - best)):
                best = xe
    E_edge = (best / L) ** 2
    if abs(E - E_edge) < EDGE_SHIFT:
        return (E_edge + EDGE_SHIFT if E >= E_edge else E_edge - EDGE_SHIFT), True
    return E, False
