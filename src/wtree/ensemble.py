"""Monte Carlo statistics of the disordered WT recursion.

Two sample sources are provided.  The direct source solves independent
finite trees, one disorder replica per sample.  The pool source keeps a
population of disk values and advances it one generation at a time:
each member redraws K children uniformly from the current population,
merges them, and propagates through a fresh random edge.  After burn-in
the pool approximates the stationary distribution of the infinite-tree
recursion at a fraction of the cost of deep tree solves.

All randomness is counter-based (see graphmodel), so every estimate is
reproducible bit for bit from the master seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .engine import as_point, solve_root_R_batch, sqrt_upper
from .errors import (
    BudgetExceededError,
    InsufficientSamplesError,
    NumericalDegeneracyError,
    ValidationError,
)
from .graphmodel import (
    DOMAIN_EDGE,
    DOMAIN_POOL_CHILD,
    DOMAIN_POOL_LENGTH,
    DOMAIN_SCAN_ENERGY,
    DisorderModel,
    TreeSpec,
    hash_words,
    omega_from_uniform,
    uniform01,
)
from .regular import _cut_seed, cut_seed_disk, fixed_point_batch, gamma_clean, stationary_disk

__all__ = [
    "SamplePool",
    "pool_init",
    "pool_step",
    "LyapunovEstimate",
    "estimate_gamma",
    "estimate_gamma_tilde",
    "WidthStats",
    "quantile_width",
    "JensenReport",
    "check_jensen",
    "FluctuationReport",
    "fluctuation_report",
    "ScanCell",
    "stability_scan",
]


def _seed_disk(spec: TreeSpec, z, mode: str, at_cut: bool) -> complex:
    """Truncation seed; ``at_cut`` selects the far-end (tree-solver) variant."""
    if mode == "disk_zero":
        return 0j
    if mode == "fixed_point":
        if at_cut:
            return cut_seed_disk(z, spec.K, spec.L)
        return stationary_disk(z, spec.K, spec.L)
    raise ValidationError(f"unknown seed mode {mode!r}; use 'fixed_point' or 'disk_zero'")


def _root_edge_lengths(spec: TreeSpec, dm: DisorderModel, replicas: np.ndarray) -> np.ndarray:
    """Root-edge lengths of the given replicas, hashed with the tree solver's words."""
    u = uniform01(hash_words(dm.master_seed, DOMAIN_EDGE, replicas, 0))
    return spec.L * np.exp(dm.lam * omega_from_uniform(dm.dist, u))


def _sampling_point(z, n: int, boundary_message: str):
    """``z`` as a point, checked to have eta > 0 and n >= 2 samples."""
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError(boundary_message)
    if n < 2:
        raise InsufficientSamplesError("need at least 2 samples")
    return p


def _direct_roots(spec: TreeSpec, dm: DisorderModel, p, n: int, seed_mode: str):
    """Root WT values and root-edge lengths of cut-seeded replicas 0..n-1."""
    replicas = np.arange(n, dtype=np.uint64)
    seed = _seed_disk(spec, p, seed_mode, at_cut=True)
    R = solve_root_R_batch(spec, dm, p.z, seed, replicas)
    return R, _root_edge_lengths(spec, dm, replicas)


log = logging.getLogger(__name__)


@dataclass
class SamplePool:
    """Population of disk values evolving under the pooled recursion.

    ``generation`` counts applied steps and feeds the counter RNG, so a
    pool's trajectory is a pure function of (spec, dm, z, size, seed
    mode).  ``resampled`` counts entries redrawn after singular merges.
    """

    spec: TreeSpec
    dm: DisorderModel
    z: complex
    values: np.ndarray
    generation: int = 0
    resampled: int = 0

    @property
    def size(self) -> int:
        return self.values.size


def pool_init(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    size: int,
    seed_mode: str = "fixed_point",
) -> SamplePool:
    """Fresh pool of ``size`` identical disk values.

    ``seed_mode`` "fixed_point" starts at the clean-tree stationary
    value (exact for lam = 0), "disk_zero" at m = 0.
    """
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("pools require eta > 0")
    if size < 1:
        raise ValidationError("pool size must be >= 1")
    seed = _seed_disk(spec, p, seed_mode, at_cut=False)
    return SamplePool(
        spec=spec,
        dm=dm,
        z=p.z,
        values=np.full(size, seed, dtype=np.complex128),
    )


def _merge_rows(mc: np.ndarray):
    """Row-wise K-child merge; flags rows that hit a singular point."""
    den = 1.0 - mc
    sing = den == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        zeta = ((1.0 + mc) / np.where(sing, 1.0, den)).sum(axis=1)
        merged = (zeta - 1.0) / (zeta + 1.0)
    bad = sing.any(axis=1) | ~np.isfinite(merged.real) | ~np.isfinite(merged.imag)
    return merged, bad


def _pool_advance(pool: SamplePool):
    """One pooled generation; returns (child_idx, lengths, m_new, resampled)."""
    P = pool.size
    K = pool.spec.K
    seed = pool.dm.master_seed
    gen = pool.generation
    members = np.arange(P, dtype=np.uint64).reshape(P, 1)
    slots = np.arange(K, dtype=np.uint64).reshape(1, K)
    h = hash_words(seed, DOMAIN_POOL_CHILD, gen, members, slots)
    child_idx = (h % np.uint64(P)).astype(np.int64)
    u = uniform01(hash_words(seed, DOMAIN_POOL_LENGTH, gen, members[:, 0]))
    om = omega_from_uniform(pool.dm.dist, u)
    lengths = pool.spec.L * np.exp(pool.dm.lam * om)

    merged, bad = _merge_rows(pool.values[child_idx])
    resampled = 0
    retry = 0
    while bad.any():
        # A draw combination hit m = 1 or zeta = -1; redraw those rows'
        # children through a salted counter word so everything else is
        # untouched and reruns stay deterministic.
        retry += 1
        if retry > 8:
            raise NumericalDegeneracyError("pool merge kept hitting singular children")
        rows = np.nonzero(bad)[0]
        resampled += rows.size
        h2 = hash_words(
            seed, DOMAIN_POOL_CHILD, gen, rows.astype(np.uint64).reshape(-1, 1), slots, retry
        )
        idx2 = (h2 % np.uint64(P)).astype(np.int64)
        child_idx[rows] = idx2
        m2, bad2 = _merge_rows(pool.values[idx2])
        merged[rows] = m2
        bad = np.zeros_like(bad)
        bad[rows] = bad2
    if resampled:
        log.info("pool generation %d resampled %d singular merges", gen, resampled)

    w = sqrt_upper(as_point(pool.z))
    m_new = np.exp(2j * w * lengths) * merged
    if not np.all(np.isfinite(m_new.view(np.float64))):
        raise NumericalDegeneracyError("pool step produced non-finite disk values")
    return child_idx, lengths, m_new, resampled


def pool_step(pool: SamplePool) -> SamplePool:
    """Advance the pool by one generation in place."""
    _, _, m_new, resampled = _pool_advance(pool)
    pool.values = m_new
    pool.generation += 1
    pool.resampled += resampled
    return pool


@dataclass(frozen=True)
class LyapunovEstimate:
    """Monte Carlo Lyapunov exponent with its standard error."""

    gamma_hat: float
    stderr: float
    n: int
    z: complex
    source: str


def _r_from_m_arr(m: np.ndarray, w: complex) -> np.ndarray:
    return 1j * w * (1.0 + m) / (1.0 - m)


def _gamma_terms(R: np.ndarray, lengths: np.ndarray, w: complex, K: int) -> np.ndarray:
    ratio = np.cos(w * lengths) + R * np.sin(w * lengths) / w
    return -0.5 * math.log(K) - np.log(np.abs(ratio))


def _auto_thin(z, K: int, L: float) -> int:
    """Generations between pool collections: a few relaxation times.

    The pooled recursion forgets its state at the clean rate 2*gamma0
    per generation, so generation means decorrelate only beyond
    ~1/(2*gamma0) steps.
    """
    g0 = max(gamma_clean(as_point(z).z, K, L), 1e-4)
    return min(2000, max(1, math.ceil(1.5 / g0)))


def estimate_gamma(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    n: int,
    source: str = "pool",
    seed_mode: str = "fixed_point",
    burn_in: int = 200,
    pool_size: int = None,
    thin: int = None,
) -> LyapunovEstimate:
    """Lyapunov exponent of the edge-to-edge amplitude decay.

    Each sample pairs the WT value at the near end of an edge with that
    edge's length l and contributes
    -log(sqrt(K)) - log|cos(w*l) + R*sin(w*l)/w|.

    Parameters
    ----------
    source : str
        "direct" solves n independent trees of depth ``spec.depth`` and
        samples their root edges (iid samples, exact standard error).
        "pool" collects whole generations of a burnt-in pool, spaced
        ``thin`` generations apart; members of one generation share the
        population's stochastic drift, so the standard error comes from
        the spread of the per-generation means, not the member spread.
    seed_mode : str
        Truncation seeding; "fixed_point" is exact at lam = 0.
    burn_in : int
        Pool generations discarded before collecting (pool source).
    pool_size : int
        Pool population; defaults to about n/8, capped at 4096, so that
        several generations contribute.
    thin : int
        Generations between collections; default is a few relaxation
        times 1/(2*gamma0) of the clean contraction.
    """
    p = _sampling_point(z, n, "Lyapunov estimation requires eta > 0")
    if source == "pool":
        return estimate_gamma_tilde(spec, dm, p, n, 0.0, seed_mode, burn_in, pool_size, thin)
    if source != "direct":
        raise ValidationError(f"unknown source {source!r}; use 'pool' or 'direct'")

    R, lengths = _direct_roots(spec, dm, p, n, seed_mode)
    terms = _gamma_terms(R, lengths, sqrt_upper(p), spec.K)
    stderr = float(terms.std(ddof=1) / math.sqrt(terms.size))
    return LyapunovEstimate(
        gamma_hat=float(terms.mean()), stderr=stderr, n=terms.size, z=p.z, source=source
    )


def estimate_gamma_tilde(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    n: int,
    beta_v: float,
    seed_mode: str = "fixed_point",
    burn_in: int = 200,
    pool_size: int = None,
    thin: int = None,
) -> LyapunovEstimate:
    """Lyapunov exponent of the rotated (tilde) system, pool source.

    The rotated amplitude across one generation gains the factor
    (cot(beta) + R_child) / (cot(beta) + R_parent) on top of the plain
    edge ratio, so each sample pairs a parent edge with one of its
    children.  For beta_v = 0 this is the pool source of
    :func:`estimate_gamma`, which delegates here: whole generations of a
    burnt-in pool are collected ``thin`` generations apart, and the
    standard error comes from the spread of the generation means.
    """
    p = _sampling_point(z, n, "Lyapunov estimation requires eta > 0")
    if not 0.0 <= beta_v < math.pi:
        raise ValidationError(f"beta_v must lie in [0, pi), got {beta_v}")
    w = sqrt_upper(p)
    K = spec.K
    ct = 0.0 if beta_v == 0.0 else math.cos(beta_v) / math.sin(beta_v)
    if pool_size is not None:
        P = max(1, min(pool_size, n))
    else:
        P = max(1, min(4096, n // 8)) if n >= 8 else n
    G = max(1, math.ceil(n / P))
    if thin is None:
        thin = _auto_thin(p, K, spec.L)
    pool = pool_init(spec, dm, p, P, seed_mode)
    for _ in range(burn_in):
        pool_step(pool)
    chunks = []
    gen_means = np.empty(G)
    for g in range(G):
        if g:
            for _ in range(thin - 1):
                pool_step(pool)
        child_idx, lengths, m_new, _ = _pool_advance(pool)
        R_parent = _r_from_m_arr(m_new, w)
        t = _gamma_terms(R_parent, lengths, w, K)
        if beta_v != 0.0:
            R_child = _r_from_m_arr(pool.values[child_idx[:, 0]], w)
            t = t - np.log(np.abs(ct + R_child)) + np.log(np.abs(ct + R_parent))
        pool.values = m_new
        pool.generation += 1
        chunks.append(t)
        gen_means[g] = t.mean()
    terms = np.concatenate(chunks)
    if G >= 2:
        stderr = float(gen_means.std(ddof=1) / math.sqrt(G))
    else:
        stderr = float(terms.std(ddof=1) / math.sqrt(terms.size))
    gamma = float(terms.mean())
    return LyapunovEstimate(gamma_hat=gamma, stderr=stderr, n=terms.size, z=p.z, source="pool")


@dataclass(frozen=True)
class WidthStats:
    """Relative inter-quantile width of a positive sample.

    ``delta = 1 - xi_minus / xi_plus`` with xi_minus the a-quantile and
    xi_plus the (1-a)-quantile by index in the ascending sort: the
    bracket pair is s[k] and s[n-1-k] for k = floor(a*n), ordered so
    that xi_minus <= xi_plus (at a = 1/2 with a*n integral the raw
    indices cross by one; the ordered pair is the median bracket).
    Always lies in [0, 1).
    """

    a: float
    n: int
    xi_minus: float
    xi_plus: float
    delta: float


def quantile_width(samples, a: float) -> WidthStats:
    """Width statistic delta(X, a) of a positive sample."""
    if not 0.0 < a <= 0.5:
        raise ValidationError(f"quantile level a must lie in (0, 1/2], got {a}")
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 2:
        raise InsufficientSamplesError("width statistic needs at least 2 samples")
    if not np.all(np.isfinite(x)) or x[0] <= 0.0:
        raise ValidationError("width statistic requires finite positive samples")
    k = int(math.floor(a * n + 1e-9))
    k = min(k, n - 1 - k)
    xi_minus = float(x[k])
    xi_plus = float(x[n - 1 - k])
    return WidthStats(a=a, n=n, xi_minus=xi_minus, xi_plus=xi_plus, delta=1.0 - xi_minus / xi_plus)


@dataclass(frozen=True)
class JensenReport:
    """Averaging gain of log over K-fold means versus its lower bound.

    ``lhs`` estimates E log(mean of K draws), ``e_log`` estimates
    E log X, ``width_term`` is (a^2/4) delta(X, a)^2, ``rhs`` is their
    sum, and ``slack`` is lhs - rhs, which the averaging inequality
    makes nonnegative up to sampling error.
    """

    K: int
    a: float
    method: str
    lhs: float
    e_log: float
    width_term: float
    rhs: float
    slack: float
    stderr: float
    passed: bool


def check_jensen(
    samples,
    K: int,
    a: float,
    method: str = "resample",
    n_trials: int = None,
    seed: int = 0,
) -> JensenReport:
    """Test E log(K-mean of X) >= E log X + (a^2/4) delta(X, a)^2.

    Parameters
    ----------
    samples : array_like
        Positive iid draws of X.
    method : str
        "resample" Monte Carlo with ``n_trials`` K-tuples; "enumerate"
        averages over all n**K ordered tuples exactly (n**K capped).
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    if n < 2:
        raise InsufficientSamplesError("need at least 2 samples")
    if not np.all(np.isfinite(x)) or np.min(x) <= 0.0:
        raise ValidationError("samples must be finite and positive")

    logs = np.log(x)
    e_log = float(logs.mean())
    se_elog = float(logs.std(ddof=1) / math.sqrt(n))
    width = quantile_width(x, a)
    width_term = (a * a / 4.0) * width.delta * width.delta

    if method == "enumerate":
        if n**K > 2**24:
            raise BudgetExceededError(f"enumeration over {n}**{K} tuples exceeds the cap")
        acc = x.copy()
        for _ in range(K - 1):
            acc = acc[..., None] + x
        lhs_vals = np.log(acc / K).ravel()
        lhs = float(lhs_vals.mean())
        se_lhs = 0.0
    elif method == "resample":
        draws = n_trials or n
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(draws, K))
        lhs_vals = np.log(x[idx].mean(axis=1))
        lhs = float(lhs_vals.mean())
        se_lhs = float(lhs_vals.std(ddof=1) / math.sqrt(draws))
    else:
        raise ValidationError(f"unknown method {method!r}; use 'resample' or 'enumerate'")

    stderr = math.sqrt(se_lhs * se_lhs + se_elog * se_elog)
    rhs = e_log + width_term
    slack = lhs - rhs
    return JensenReport(
        K=K,
        a=a,
        method=method,
        lhs=lhs,
        e_log=e_log,
        width_term=width_term,
        rhs=rhs,
        slack=slack,
        stderr=stderr,
        passed=slack >= -3.0 * stderr,
    )


@dataclass(frozen=True)
class FluctuationReport:
    """Quantile widths of the stationary recursion against Lyapunov bounds.

    ``delta_im`` is the width of Im R, ``delta_mod`` the width of the
    squared edge-ratio modulus; their squares are checked against
    ``bound1`` = (8/a^2) gamma and ``bound2`` = 512 (K+1)^2 / a^2 gamma,
    with gamma taken at gamma_hat + 3 stderr for slack.
    """

    z: complex
    lam: float
    a: float
    n: int
    gamma_hat: float
    gamma_stderr: float
    delta_im: float
    delta_mod: float
    bound1: float
    bound2: float
    bound1_ok: bool
    bound2_ok: bool


def fluctuation_report(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    n: int,
    a: float = 0.25,
    seed_mode: str = "fixed_point",
    source: str = "direct",
    burn_in: int = 200,
) -> FluctuationReport:
    """Stationary fluctuation widths at z versus their Lyapunov bounds.

    The default "direct" source solves n independent trees, giving iid
    (R, length) pairs for the widths and an exact standard error on the
    Lyapunov estimate.  The "pool" source takes one generation of a
    burnt-in pool of size n instead; its members share the population's
    stochastic drift, so its nominal standard error is optimistic.
    """
    p = _sampling_point(z, n, "fluctuation widths require eta > 0")
    w = sqrt_upper(p)
    K = spec.K
    if source == "direct":
        R, lengths = _direct_roots(spec, dm, p, n, seed_mode)
    elif source == "pool":
        pool = pool_init(spec, dm, p, n, seed_mode)
        for _ in range(burn_in):
            pool_step(pool)
        _, lengths, m_new, _ = _pool_advance(pool)
        pool.values = m_new
        pool.generation += 1
        R = _r_from_m_arr(m_new, w)
    else:
        raise ValidationError(f"unknown source {source!r}; use 'direct' or 'pool'")
    ratio_sq = np.abs(np.cos(w * lengths) + R * np.sin(w * lengths) / w) ** 2
    terms = -0.5 * math.log(K) - 0.5 * np.log(ratio_sq)
    gamma = float(terms.mean())
    gamma_se = float(terms.std(ddof=1) / math.sqrt(n))

    d_im = quantile_width(R.imag, a).delta
    d_mod = quantile_width(ratio_sq, a).delta
    gamma_hi = gamma + 3.0 * gamma_se
    bound1 = (8.0 / (a * a)) * gamma_hi
    bound2 = (512.0 * (K + 1) ** 2 / (a * a)) * gamma_hi
    return FluctuationReport(
        z=p.z,
        lam=dm.lam,
        a=a,
        n=n,
        gamma_hat=gamma,
        gamma_stderr=gamma_se,
        delta_im=d_im,
        delta_mod=d_mod,
        bound1=bound1,
        bound2=bound2,
        bound1_ok=d_im * d_im <= bound1,
        bound2_ok=d_mod * d_mod <= bound2,
    )


@dataclass(frozen=True)
class ScanCell:
    """Exceedance of |R - Phi(E)| > eps in one (lam, eta) cell."""

    lam: float
    eta: float
    eps: float
    n: int
    exceedance: float
    stderr: float


def stability_scan(
    spec: TreeSpec,
    dm: DisorderModel,
    lambdas,
    etas,
    e_min: float,
    e_max: float,
    eps: float,
    n: int,
    seed_mode: str = "fixed_point",
) -> list:
    """Fraction of solves that stray from the clean fixed point.

    For each (lam, eta) cell, n energies are drawn uniformly from
    [e_min, e_max] (counter RNG keyed by the cell index), one tree is
    solved per energy at z = E + i*eta with disorder replica indices
    unique across the scan, and the distance |R - Phi(E)| to the clean
    boundary fixed point is thresholded at eps.

    Returns one :class:`ScanCell` per (lam, eta) pair, lambdas outermost.
    """
    if e_min <= 0 or e_max <= e_min:
        raise ValidationError("need 0 < e_min < e_max")
    if n < 2:
        raise InsufficientSamplesError("need at least 2 samples per cell")
    if eps <= 0:
        raise ValidationError("eps must be positive")
    cells = []
    cell_idx = 0
    for lam in lambdas:
        dm_cell = DisorderModel(lam=float(lam), dist=dm.dist, master_seed=dm.master_seed)
        for eta in etas:
            if eta <= 0:
                raise ValidationError("scan requires eta > 0 in every cell")
            idx = np.arange(n, dtype=np.uint64)
            u = uniform01(hash_words(dm.master_seed, DOMAIN_SCAN_ENERGY, cell_idx, idx))
            energies = e_min + (e_max - e_min) * u
            z_arr = energies + 1j * float(eta)
            phi_solver = fixed_point_batch(energies, float(eta), spec.K, spec.L).phi
            phi_target = fixed_point_batch(energies, 0.0, spec.K, spec.L).phi
            seeds = _cut_seed(phi_solver, np.sqrt(z_arr), spec.K)
            replicas = (cell_idx * n + idx.astype(np.int64)).astype(np.uint64)
            R = solve_root_R_batch(spec, dm_cell, z_arr, seeds, replicas)
            dev = np.abs(R - phi_target)
            p_exc = float(np.mean(dev > eps))
            se = math.sqrt(max(p_exc * (1.0 - p_exc), 1.0 / n) / n)
            cells.append(
                ScanCell(
                    lam=float(lam),
                    eta=float(eta),
                    eps=eps,
                    n=n,
                    exceedance=p_exc,
                    stderr=se,
                )
            )
            cell_idx += 1
    return cells
