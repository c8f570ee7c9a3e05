"""Independent reference computations shared by the test modules."""

import functools
import math

import numpy as np

import wtree.ensemble as ensemble
from wtree import TreeSpec, ValidationError, band_theta
from wtree.engine import sqrt_upper
from wtree.regular import EDGE_SHIFT, gamma_clean


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


@functools.lru_cache(maxsize=None)
def relaxed_gamma(K: int, L: float, z: complex, dm, size: int = 2048, gens: int = 2400):
    """Lyapunov exponent from the one-edge amplitude ratio of a relaxed pool.

    A pool of ``size`` members is burnt in for five clean relaxation
    times 1/(2*gamma0) and then read at each of ``gens`` consecutive
    generations: every member's new edge, of length l and near-end value
    R, contributes -log|cos(wl) + R sin(wl)/w| - log(K)/2.  That term
    has no current or Jensen part; its stationary mean is gamma
    (docs/derivations section 5).  Its per-sample spread is large, but
    the log Im R swings behind it telescope over consecutive
    generations, so the mean over many of them is tight.  Returns
    ``(gamma, stderr)``, the stderr from the means of 20 batches of
    consecutive generations.
    """
    w = complex(sqrt_upper(z))
    pool = ensemble.pool_init(TreeSpec(K=K, L=L, depth=1), dm, z, size)
    for _ in range(math.ceil(5.0 / (2.0 * gamma_clean(z, K, L)))):
        ensemble.pool_step(pool)
    means = np.empty(gens)
    for g in range(gens):
        _, lengths = ensemble._pool_advance(pool)
        m = pool.values
        R = 1j * w * (1.0 + m) / (1.0 - m)
        ratio = np.cos(w * lengths) + R * np.sin(w * lengths) / w
        means[g] = -np.log(np.abs(ratio)).mean() - 0.5 * math.log(K)
    batches = means.reshape(20, -1).mean(axis=1)
    return float(means.mean()), float(batches.std(ddof=1) / math.sqrt(20))
