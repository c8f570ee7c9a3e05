"""Independent reference computations shared by the test modules."""

import numpy as np

from wtree import ValidationError


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
