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
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import (
    _check_count,
    _check_threads,
    _disk_to_r,
    _is_int,
    _lengths,
    _merge_sum,
    _merge_terms,
    _phase,
    _pull,
    _r_to_disk,
    as_point,
    solve_root_R_batch,
    sqrt_upper,
)
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
    ROOT_EDGE,
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
    "WidthStats",
    "quantile_width",
    "JensenReport",
    "check_jensen",
    "FluctuationReport",
    "fluctuation_report",
    "ScanCell",
    "stability_scan",
]


def _root_edge_lengths(spec: TreeSpec, dm: DisorderModel, replicas: np.ndarray) -> np.ndarray:
    """Root-edge lengths of the given replicas, hashed with the tree solver's words."""
    u = uniform01(hash_words(dm.master_seed, DOMAIN_EDGE, replicas, 0))
    return _lengths(omega_from_uniform(dm.dist, u), dm.lam, spec.L)


def _sampling_point(z, n: int, boundary_message: str):
    """``z`` as a point, checked to have eta > 0 and an integer n >= 2 samples."""
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError(boundary_message)
    if not _is_int(n):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise InsufficientSamplesError("need at least 2 samples")
    return p


log = logging.getLogger(__name__)


def _as_models(dm) -> tuple:
    """The disorder models of a pool's rows: ``(dm,)`` for one model, else the checked sequence."""
    if isinstance(dm, DisorderModel):
        return (dm,)
    try:
        models = tuple(dm)
    except TypeError:
        models = ()
    if not models or not all(isinstance(m, DisorderModel) for m in models):
        raise ValidationError(
            f"expected a DisorderModel or a non-empty sequence of them, got {dm!r}"
        )
    return models


@dataclass
class SamplePool:
    """Population of disk values evolving under the pooled recursion.

    A pool of one ``DisorderModel`` holds ``values`` of shape (P,).  A
    stacked pool holds one row per model of a tuple ``dm``, ``values`` of
    shape (B, P); every row is bit for bit the pool its model would give
    alone, and all rows share ``spec``, ``z`` and ``generation``.
    ``size`` counts the members of all rows.

    ``generation`` counts applied steps and feeds the counter RNG, so a
    pool's trajectory is a pure function of (spec, dm, z, size).
    ``resampled`` counts entries, over all rows, redrawn after singular
    merges.  The child slots and edge lengths of a generation depend only
    on its counter words, so they are hashed for a block of consecutive
    generations at once and held in a private cache keyed by the block's
    first generation and the fields above; setting
    ``generation``, ``dm`` or ``values`` by hand is safe.
    """

    spec: TreeSpec
    dm: DisorderModel | tuple
    z: complex
    values: np.ndarray
    generation: int = 0
    resampled: int = 0
    _draws: _PoolDraws = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.values.size


def pool_init(spec: TreeSpec, dm, z, size: int) -> SamplePool:
    """Fresh pool of ``size`` identical disk values per disorder model.

    ``dm`` is one ``DisorderModel`` (``values`` of shape (size,)) or a
    non-empty sequence of B of them at this one z (a stacked pool,
    ``values`` of shape (B, size)); anything else raises
    ``ValidationError``.  Every member starts at the clean-tree
    stationary value, which is exact for lam = 0.
    """
    models = _as_models(dm)
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("pools require eta > 0")
    if size < 1:
        raise ValidationError("pool size must be >= 1")
    seed = stationary_disk(p, spec.K, spec.L)
    stacked = not isinstance(dm, DisorderModel)
    return SamplePool(
        spec=spec,
        dm=models if stacked else dm,
        z=p.z,
        values=np.full((len(models), size) if stacked else size, seed, dtype=np.complex128),
    )


#: hashed words per block of pool draws: a block holds
#: max(1, _POOL_BLOCK_WORDS // (B*P*K)) generations of all B rows, so its
#: child slots, lengths and phases take 0.5 MB (K = 3) to 1 MB (K = 1)
#: unless one generation alone is larger
_POOL_BLOCK_WORDS = 2**15


def _draws_key(pool: SamplePool) -> tuple:
    """Everything but the generation that a pool's draws depend on."""
    return (pool.values.shape, pool.spec, pool.dm, pool.z)


@dataclass(frozen=True)
class _PoolDraws:
    """Draws of generations g0..g0+T-1, indexed (T, *values.shape[, K]).

    ``child_idx`` indexes ``values.ravel()``, so row b's slots are offset
    by b*P; ``phases`` are exp(2i*w*lengths), the pull of each new edge.
    """

    key: tuple
    g0: int
    child_idx: np.ndarray
    lengths: np.ndarray
    phases: np.ndarray

    def covers(self, pool: SamplePool) -> bool:
        return self.key == _draws_key(pool) and 0 <= pool.generation - self.g0 < len(self.lengths)


def _pool_draws(pool: SamplePool, g0: int) -> _PoolDraws:
    """Hash the pool's draws for the block of generations starting at ``g0``.

    Each row's words are those of a single generation of its own pool,
    (seed, domain, generation, member[, slot]), with the generation as an
    array word, so every row equals what hashing its generation alone
    gives.  Rows with the same master seed share the hashed words.
    """
    models = _as_models(pool.dm)
    B = len(models)
    P = pool.values.shape[-1]
    K = pool.spec.K
    T = max(1, _POOL_BLOCK_WORDS // (pool.size * K))
    gens = np.arange(g0, g0 + T, dtype=np.uint64).reshape(T, 1)
    members = np.arange(P, dtype=np.uint64)
    slots = np.arange(K, dtype=np.uint64)
    child_idx = np.empty((T, B, P, K), dtype=np.int64)
    lengths = np.empty((T, B, P))
    hashed = {}
    for b, dm in enumerate(models):
        seed = dm.master_seed
        if seed not in hashed:
            h = hash_words(seed, DOMAIN_POOL_CHILD, gens[:, :, None], members[:, None], slots)
            u = uniform01(hash_words(seed, DOMAIN_POOL_LENGTH, gens, members))
            hashed[seed] = ((h % np.uint64(P)).astype(np.int64), u)
        row_idx, u = hashed[seed]
        np.add(row_idx, b * P, out=child_idx[:, b])
        lengths[:, b] = _lengths(omega_from_uniform(dm.dist, u), dm.lam, pool.spec.L)
    shape = (T,) + pool.values.shape
    child_idx = child_idx.reshape(shape + (K,))
    lengths = lengths.reshape(shape)
    phases = _phase(sqrt_upper(as_point(pool.z)), lengths)
    # rows are handed out as views, so the cache is read-only
    for a in (child_idx, lengths, phases):
        a.flags.writeable = False
    return _PoolDraws(_draws_key(pool), g0, child_idx, lengths, phases)


def _pool_advance(pool: SamplePool):
    """Advance every row of the pool by one generation in place.

    Returns (child_idx, lengths) of the step; ``child_idx`` indexes the
    old ``values.ravel()``.
    """
    P = pool.values.shape[-1]
    K = pool.spec.K
    gen = pool.generation
    draws = pool._draws
    if draws is None or not draws.covers(pool):
        draws = pool._draws = _pool_draws(pool, gen)
    t = gen - draws.g0
    child_idx = draws.child_idx[t]

    phases = draws.phases[t]
    resampled = 0
    # A child at m = 1 or a total zeta = -1 merges to a non-finite value.
    # A finite m_new needs finite merges, so one check covers both.
    with np.errstate(divide="ignore", invalid="ignore"):
        # each member's merge term is computed once, however often it is drawn
        h = _merge_terms(pool.values.ravel().copy())
        merged = _merge_sum(h.take(child_idx))
        # out of place, as ``engine._pull`` multiplies one-element blocks
        m_new = np.multiply(phases, merged)
        finite = np.isfinite(m_new.view(np.float64)).all()
        if not finite:
            rows = merged.reshape(-1, P)
            bad = ~np.isfinite(rows)
            retry = 0
            while bad.any():
                # Redraw the singular members' children through a salted
                # counter word of their own row, so everything else is
                # untouched and reruns stay deterministic.
                retry += 1
                if retry > 8:
                    raise NumericalDegeneracyError("pool merge kept hitting singular children")
                if retry == 1:
                    child_idx = child_idx.copy()  # the cached block stays as hashed
                models = _as_models(pool.dm)
                row_idx = child_idx.reshape(-1, P, K)
                slots = np.arange(K, dtype=np.uint64)
                for b in np.nonzero(bad.any(axis=1))[0]:
                    members = np.nonzero(bad[b])[0]
                    resampled += members.size
                    words = members.astype(np.uint64)[:, None]
                    h2 = hash_words(models[b].master_seed, DOMAIN_POOL_CHILD, gen, words, slots, retry)
                    row_idx[b, members] = (h2 % np.uint64(P)).astype(np.int64) + b * P
                    rows[b, members] = _merge_sum(h.take(row_idx[b, members]))
                bad = ~np.isfinite(rows)
            m_new = np.multiply(phases, merged)
            finite = np.isfinite(m_new.view(np.float64)).all()
    if resampled:
        log.info("pool generation %d resampled %d singular merges", gen, resampled)
    if not finite:
        raise NumericalDegeneracyError("pool step produced non-finite disk values")
    pool.values = m_new
    pool.generation += 1
    pool.resampled += resampled
    return child_idx, draws.lengths[t]


def pool_step(pool: SamplePool) -> SamplePool:
    """Advance every row of the pool, (P,) or (B, P), by one generation in place."""
    _pool_advance(pool)
    return pool


@dataclass(frozen=True)
class LyapunovEstimate:
    """Monte Carlo Lyapunov exponent with its standard error."""

    gamma_hat: float
    stderr: float
    n: int
    z: complex
    source: str


def _gamma_parts(R, R_kids, lengths, w: complex):
    """Current-loss and Jensen-gap parts of 2*gamma and log|psi(l)/psi(0)|, per sample.

    ``R`` holds the near-end WT values of edges of length ``lengths`` and
    ``R_kids``, with one more axis of length K, the near-end values of
    their children, whose sum is the far-end value R(l) (Kirchhoff).  The
    current part is log(J(0)/J(l)) for the current J = |psi|^2 Im R, and
    the Jensen part log mean_k Im R_k(0) - mean_k log Im R_k(0); each is
    >= 0 sample by sample, and the Jensen part is 0 for K = 1.  The edge
    ratio is read in the disk picture: psi(x) is proportional to
    exp(iwx) (1 - m(x)) and 1 - m = 2iw / (R + iw), so it needs no
    cos(wl) or sin(wl) and cannot overflow.
    """
    R_far = R_kids.sum(axis=-1)
    im_kids = R_kids.imag
    log_ratio = np.log(np.abs(R + 1j * w)) - np.log(np.abs(R_far + 1j * w)) - w.imag * lengths
    current = np.log(R.imag) - 2.0 * log_ratio - np.log(R_far.imag)
    jensen = np.log(im_kids.mean(axis=-1)) - np.log(im_kids).mean(axis=-1)
    return current, jensen, log_ratio


def _auto_thin(z, K: int, L: float) -> int:
    """Generations between pool collections: a few relaxation times.

    The pooled recursion forgets its state at the clean rate 2*gamma0
    per generation, so generation means decorrelate only beyond
    ~1/(2*gamma0) steps.
    """
    g0 = max(gamma_clean(as_point(z).z, K, L), 1e-4)
    return min(2000, max(1, math.ceil(1.5 / g0)))


def _sample(spec, dm, p, n, term, source, burn_in, pool_size, threads=1) -> list:
    """One sampling pass: (mean, stderr, count) of ``term`` per disorder model.

    ``term(R, R_kids, lengths)`` maps one block of edges, their near-end
    WT values, the near-end values of their K children (one more axis)
    and their lengths, to per-sample terms.  "direct" gives one (n,)
    block per model, the root edges of cut-seeded trees 0..n-1: the K
    child subtrees of each are solved, merged and pulled across the root
    edge.  "pool" gives G = ceil(n / P) generations of one stacked pool,
    :func:`_auto_thin` apart after ``burn_in``, each a (B, P) block whose
    children are the members each member drew.  The stderr is the spread
    of the G generation means over sqrt(G), or for G = 1 that of the iid
    samples over sqrt(count).  ``threads`` splits the direct source's
    tree solves.  Arguments are checked before any sampling.
    """
    models = _as_models(dm)
    _check_threads(threads)
    w = sqrt_upper(p)
    if source == "direct":
        if spec.depth < 1:
            raise ValidationError(
                f"the direct source needs depth >= 1, so that root edges have children, "
                f"got depth {spec.depth}"
            )
        replicas = np.arange(n, dtype=np.uint64)
        seed = cut_seed_disk(p, spec.K, spec.L)
        terms = np.empty((len(models), 1, n))
        for b, model in enumerate(models):
            kids = np.stack(
                [
                    solve_root_R_batch(
                        spec, model, p.z, seed, replicas, threads=threads, addr=ROOT_EDGE.child(k)
                    )
                    for k in range(spec.K)
                ],
                axis=-1,
            )
            lengths = _root_edge_lengths(spec, model, replicas)
            # the root step of the tree kernel: Kirchhoff merge, then pull
            R = _disk_to_r(_pull(_r_to_disk(kids.sum(axis=-1), w), w, lengths), w)
            terms[b, 0] = term(R, kids, lengths)
    elif source == "pool":
        _check_count("burn_in", burn_in, 0)
        if pool_size is not None:
            _check_count("pool_size", pool_size, 1)
            P = min(pool_size, n)
        else:
            P = min(4096, n // 8) if n >= 8 else n
        G = math.ceil(n / P)
        thin = _auto_thin(p, spec.K, spec.L) if G >= 2 else 1
        pool = pool_init(spec, dm, p, P)
        for _ in range(burn_in):
            pool_step(pool)
        terms = np.empty((len(models), G, P))
        for g in range(G):
            if g:
                for _ in range(thin - 1):
                    pool_step(pool)
            old = pool.values
            child_idx, lengths = _pool_advance(pool)
            R_kids = _disk_to_r(old.ravel()[child_idx], w)
            terms[:, g] = term(_disk_to_r(pool.values, w), R_kids, lengths)
    else:
        raise ValidationError(f"unknown source {source!r}; use 'pool' or 'direct'")
    stats = []
    for row in terms:
        flat = row.ravel()
        if len(row) >= 2:
            stderr = row.mean(axis=-1).std(ddof=1) / math.sqrt(len(row))
        else:
            stderr = flat.std(ddof=1) / math.sqrt(flat.size)
        stats.append((float(flat.mean()), float(stderr), flat.size))
    return stats


def estimate_gamma(
    spec: TreeSpec,
    dm,
    z,
    n: int,
    source: str = "pool",
    burn_in: int = 200,
    pool_size: int = None,
    threads: int = 1,
) -> LyapunovEstimate | list[LyapunovEstimate]:
    """Lyapunov exponent of the edge-to-edge amplitude decay.

    Each sample is an edge of length l with near-end WT value R(0) and
    children of near-end values R_k(0), k = 1..K, and contributes half of

        log(J(0)/J(l)) + [log mean_k Im R_k(0) - mean_k log Im R_k(0)],

    the current lost along the edge, J = |psi|^2 Im R, plus the Jensen
    gap of Im R over the children.  Both parts are >= 0 sample by sample
    and their expectations sum to 2*gamma (docs/derivations section 5);
    log|psi(l)/psi(0)| is read in the disk picture, so no sample
    overflows at large Im(w)*l.

    Parameters
    ----------
    dm : DisorderModel or sequence of DisorderModel
        One model gives one :class:`LyapunovEstimate`; a non-empty
        sequence gives the list of their estimates at this z, equal to
        one call per model.  The pool source then advances one stacked
        pool with a row per model.
    source : str
        "direct" solves n independent trees of depth ``spec.depth`` >= 1,
        cut-seeded with the clean fixed point (exact at lam = 0), and
        samples their root edges (iid samples, exact standard error).
        The root and its children sit at different depths, so the
        estimate carries a truncation bias that the standard error
        does not count; against a relaxed pool it was below one
        standard error from depth 6 on and about seven at depth 4
        (docs/derivations section 5).
        "pool" collects whole generations of a burnt-in pool, spaced a
        few relaxation times 1/(2*gamma0) of the clean contraction apart;
        members of one generation share the population's stochastic
        drift, so the standard error comes from the spread of the
        per-generation means, not the member spread.
    burn_in : int
        Pool generations discarded before collecting (pool source), >= 0.
    pool_size : int
        Pool population, >= 1; defaults to about n/8, capped at 4096, so
        that several generations contribute.
    threads : int
        Worker threads of the direct source's tree solves, >= 1; the
        estimate is the same at any thread count.

    Raises
    ------
    ValidationError
        Before any sampling, if ``dm`` is neither a ``DisorderModel`` nor
        a non-empty sequence of them, if ``n`` or ``threads`` is not an
        integer (a bool is not) or ``threads < 1``, for the direct
        source if ``spec.depth < 1``, or for the pool source if
        ``burn_in`` or ``pool_size`` is not an integer, ``burn_in < 0``
        or ``pool_size < 1``.
    """
    p = _sampling_point(z, n, "Lyapunov estimation requires eta > 0")
    w = sqrt_upper(p)

    def term(R, R_kids, lengths):
        current, jensen, _ = _gamma_parts(R, R_kids, lengths, w)
        return 0.5 * (current + jensen)

    stats = _sample(spec, dm, p, n, term, source, burn_in, pool_size, threads)
    estimates = [LyapunovEstimate(g, se, count, p.z, source) for g, se, count in stats]
    return estimates[0] if isinstance(dm, DisorderModel) else estimates


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


def _check_level(a: float) -> None:
    if not 0.0 < a <= 0.5:
        raise ValidationError(f"quantile level a must lie in (0, 1/2], got {a}")


def quantile_width(samples, a: float) -> WidthStats:
    """Width statistic delta(X, a) of a positive sample."""
    _check_level(a)
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
        "resample" Monte Carlo with ``n_trials`` K-tuples (default n,
        else >= 2); "enumerate" averages over all n**K ordered tuples
        exactly (n**K capped).
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    if n_trials is not None and n_trials < 2:
        raise ValidationError(f"n_trials must be >= 2, got {n_trials}")
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
        draws = n if n_trials is None else n_trials
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
    with gamma taken at gamma_hat + 3 stderr for slack.  Every sample of
    ``gamma_hat`` is >= 0, so neither bound is negative.
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
    source: str = "direct",
    burn_in: int = 200,
    threads: int = 1,
) -> FluctuationReport:
    """Stationary fluctuation widths at z versus their Lyapunov bounds.

    Each sample is an edge with near-end value R(0), length l and K
    children: Im R(0) feeds ``delta_im``, |psi(l)/psi(0)|^2 feeds
    ``delta_mod``, and half the current loss plus Jensen gap of
    :func:`estimate_gamma` feeds ``gamma_hat``.  The default "direct"
    source solves the children of n independent root edges, giving iid
    samples for the widths and an exact standard error on the
    Lyapunov estimate.  The "pool" source takes one generation of a
    burnt-in pool of size n instead; its members share the population's
    stochastic drift, so its nominal standard error is optimistic.  Both
    are the one-generation case of the estimators' sampling pass, so
    ``gamma_hat`` and ``gamma_stderr`` are those of
    ``estimate_gamma(..., pool_size=n)`` up to rounding.  ``dm`` must be
    one ``DisorderModel``, ``a`` must lie in (0, 1/2], ``n`` an integer,
    ``threads`` (the worker threads of the direct source's tree solves)
    an integer >= 1, ``spec.depth`` >= 1 for the direct source and, for
    the pool source, ``burn_in`` an integer >= 0; otherwise
    ``ValidationError`` is raised before any sampling.
    """
    p = _sampling_point(z, n, "fluctuation widths require eta > 0")
    if not isinstance(dm, DisorderModel):
        raise ValidationError(f"expected a DisorderModel, got {dm!r}")
    _check_level(a)
    w = sqrt_upper(p)
    K = spec.K
    sample = {}

    def term(R, R_kids, lengths):
        current, jensen, log_ratio = _gamma_parts(R, R_kids, lengths, w)
        sample["im_R"] = R.imag
        sample["ratio_sq"] = np.exp(2.0 * log_ratio)
        return 0.5 * (current + jensen)

    ((gamma, gamma_se, _),) = _sample(spec, dm, p, n, term, source, burn_in, n, threads)
    d_im = quantile_width(sample["im_R"], a).delta
    d_mod = quantile_width(sample["ratio_sq"], a).delta
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
    threads: int = 1,
) -> list:
    """Fraction of solves that stray from the clean fixed point.

    For each (lam, eta) cell, n energies are drawn uniformly from
    [e_min, e_max] (counter RNG keyed by the cell index), one tree is
    solved per energy at z = E + i*eta, cut-seeded with the clean fixed
    point at that z, with disorder replica indices unique across the
    scan, and the distance |R - Phi(E)| to the clean boundary fixed point
    is thresholded at eps.

    Returns one :class:`ScanCell` per (lam, eta) pair, lambdas outermost.
    ``threads`` worker threads split each cell's tree solve.  Every cell
    is checked before the first solve: each lambda must be a valid
    disorder strength, each eta finite and > 0, ``e_min`` and ``e_max``
    finite with 0 < e_min < e_max, ``eps`` finite and > 0, and
    ``threads`` >= 1; otherwise ``ValidationError`` is raised.
    """
    if not (math.isfinite(e_min) and math.isfinite(e_max) and 0 < e_min < e_max):
        raise ValidationError(f"need finite 0 < e_min < e_max, got {e_min}, {e_max}")
    if n < 2:
        raise InsufficientSamplesError("need at least 2 samples per cell")
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    _check_threads(threads)
    models = [replace(dm, lam=float(lam)) for lam in lambdas]
    etas = [float(eta) for eta in etas]
    if not all(math.isfinite(eta) and eta > 0 for eta in etas):
        raise ValidationError(f"scan requires finite eta > 0 in every cell, got {etas}")
    cells = []
    cell_idx = 0
    for dm_cell in models:
        for eta in etas:
            idx = np.arange(n, dtype=np.uint64)
            u = uniform01(hash_words(dm.master_seed, DOMAIN_SCAN_ENERGY, cell_idx, idx))
            energies = e_min + (e_max - e_min) * u
            z_arr = energies + 1j * eta
            seeds = _cut_seed(fixed_point_batch(energies, eta, spec.K, spec.L).m, spec.K)
            phi_target = fixed_point_batch(energies, 0.0, spec.K, spec.L).phi
            replicas = (cell_idx * n + idx.astype(np.int64)).astype(np.uint64)
            R = solve_root_R_batch(spec, dm_cell, z_arr, seeds, replicas, threads=threads)
            dev = np.abs(R - phi_target)
            p_exc = float(np.mean(dev > eps))
            se = math.sqrt(max(p_exc * (1.0 - p_exc), 1.0 / n) / n)
            cells.append(
                ScanCell(
                    lam=dm_cell.lam,
                    eta=eta,
                    eps=eps,
                    n=n,
                    exceedance=p_exc,
                    stderr=se,
                )
            )
            cell_idx += 1
    return cells
