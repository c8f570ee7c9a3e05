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
    _disk_to_r,
    _merge_sum,
    _model_lengths,
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
    DOMAIN_POOL_REPLICA,
    DOMAIN_SCAN_ENERGY,
    OMEGA_VARIANCE,
    ROOT_EDGE,
    DisorderModel,
    TreeSpec,
    _as_models,
    _check_count,
    _check_model,
    _expand_digits,
    _is_int,
    _lengths,
    hash_words,
    omega_from_uniform,
    uniform01,
)
from .regular import (
    _cut_seed,
    cut_seed_disk,
    fixed_point_batch,
    gamma_clean,
    linear_response,
    stationary_disk,
)

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


def _root_edge_lengths(spec: TreeSpec, models, replicas: np.ndarray) -> tuple:
    """Root-edge lengths of the given replicas, shape (B, S) for B models, and their omegas.

    They are hashed with the tree solver's words, once per distinct
    ``(master_seed, dist)``; the omegas come as one (S,) array per model,
    shared by models of one pair.
    """

    def draw(dm):
        u = uniform01(hash_words(dm.master_seed, DOMAIN_EDGE, replicas, 0))
        return omega_from_uniform(dm.dist, u)

    lengths, omegas = _model_lengths(models, spec.L, draw)
    return lengths, [omegas[dm.master_seed, dm.dist] for dm in models]


def _direct_controls(spec: TreeSpec, models, z, root_omegas, means) -> list:
    """The depth + 2 mean-zero controls of each model's direct samples, a (depth + 2, n) array each.

    ``root_omegas`` holds each model's (n,) root-edge omegas and
    ``means``, shape (B, n, K, depth), the generation means xbar_{k,g} of
    every child k's subtree, g = 1..depth.  The rows are the root omega,
    sum_k xbar_{k,g} for each g, and Q - E Q with Q a quarter of the
    population variance over k of l_k = lam * sum_g c_g * xbar_{k,g} and
    E Q = lam**2 * C_J, from :func:`linear_response`.  Q is the Jensen
    part's second-order response to the disorder; at lam = 0 or K = 1
    its row is 0 and the fit drops it.
    """
    response = {}
    out = []
    for dm, root, x in zip(models, root_omegas, means):
        if dm.dist not in response:
            response[dm.dist] = linear_response(
                z, spec.K, spec.L, spec.depth, OMEGA_VARIANCE[dm.dist]
            )
        c, c_j = response[dm.dist]
        ell = c[0] * x[..., 0]
        for g in range(1, spec.depth):
            ell += c[g] * x[..., g]
        ell *= dm.lam
        controls = np.empty((spec.depth + 2, root.size))
        controls[0] = root
        controls[1:-1] = x.sum(axis=1).T
        controls[-1] = 0.25 * ell.var(axis=-1) - dm.lam**2 * c_j
        out.append(controls)
    return out


#: a control whose variance left after the kept controls is at most this
#: share of its own is collinear with them and is dropped from the fit
_COLLINEAR = 1e-9


def _control_fit(y: np.ndarray, x: np.ndarray) -> tuple:
    """(estimate, stderr) of the mean of ``y`` by linear control variates ``x``.

    ``y`` holds n iid samples and ``x``, shape (p, n), p controls of
    known mean 0 drawn with them.  With sample means y_bar and x_bar and
    beta the least-squares slope of the centred samples on the centred
    controls, the estimate is y_bar - beta . x_bar and the stderr
    sqrt(RSS / (n - q - 1)) / sqrt(n) for the q controls kept.  The
    moments are ``.mean()`` reductions and the normal equations are
    eliminated in Python floats, in control order, so the bits depend
    on neither the BLAS nor the thread count.  A control whose pivot is
    at most :data:`_COLLINEAR` times its variance (a constant column, or
    one collinear with earlier ones) gets beta = 0 and frees its degree
    of freedom.
    """
    n = y.size
    p = len(x)
    y_bar = float(y.mean())
    x_bar = [float(xj.mean()) for xj in x]
    yc = y - y_bar
    xc = [xj - mj for xj, mj in zip(x, x_bar)]
    # the augmented normal equations [S | c] of the centred fit
    a = [[float((u * v).mean()) for v in xc] + [float((u * yc).mean())] for u in xc]
    var = [a[j][j] for j in range(p)]
    kept = []
    for j in range(p):
        if not a[j][j] > _COLLINEAR * var[j]:
            continue
        kept.append(j)
        for i in range(j + 1, p):
            f = a[i][j] / a[j][j]
            for k in range(j, p + 1):
                a[i][k] -= f * a[j][k]
    # back substitution in a fixed order (the builtin sum of floats rounds
    # differently from Python 3.12 on); a dropped control's beta stays 0
    beta = [0.0] * p
    for j in reversed(kept):
        acc = a[j][p]
        for k in range(j + 1, p):
            acc -= a[j][k] * beta[k]
        beta[j] = acc / a[j][j]
    estimate = y_bar
    resid = yc
    for j in kept:
        estimate -= beta[j] * x_bar[j]
        resid = resid - beta[j] * xc[j]
    stderr = math.sqrt(float((resid * resid).mean()) / (n - len(kept) - 1))
    return estimate, stderr


def _check_samples(n) -> None:
    """Check a sample count: an int or numpy integer (not a bool), at least 2."""
    if not _is_int(n):
        raise ValidationError(f"n must be an integer, got {n!r}")
    if n < 2:
        raise InsufficientSamplesError("need at least 2 samples")


def _sampling_point(z, n: int, boundary_message: str):
    """``z`` as a point, checked to have eta > 0 and an integer n >= 2 samples."""
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError(boundary_message)
    _check_samples(n)
    return p


log = logging.getLogger(__name__)


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
    ``values`` of shape (B, size)); anything else, or a ``size`` that
    is not an integer >= 1, raises ``ValidationError``.  Every member starts at the clean-tree
    stationary value, which is exact for lam = 0.
    """
    models = _as_models(dm)
    p = as_point(z)
    if p.boundary_mode:
        raise ValidationError("pools require eta > 0")
    _check_count("pool size", size, 1)
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
    (seed, domain, generation, member[, slot]), hashed for every distinct
    seed in one chain with the seeds and generations as array words, so
    every row equals what hashing its generation alone gives; the slot
    word is a K-digit expansion of the member states.  Each distribution
    sizes and phases all its rows at once, with a column of their lams.
    Every length of a lam = 0 row is exactly L (0 * omega is +-0 and
    exp(+-0) = 1), so those rows take L and one phase exp(2i*w*L).
    """
    models = _as_models(pool.dm)
    B = len(models)
    P = pool.values.shape[-1]
    K = pool.spec.K
    L = pool.spec.L
    w = sqrt_upper(as_point(pool.z))
    T = max(1, _POOL_BLOCK_WORDS // (pool.size * K))
    column = {}
    of_row = [column.setdefault(dm.master_seed, len(column)) for dm in models]
    seeds = np.array(list(column), dtype=np.uint64).reshape(1, -1, 1)
    gens = np.arange(g0, g0 + T, dtype=np.uint64).reshape(T, 1, 1)
    members = np.arange(P, dtype=np.uint64)
    slots = _expand_digits(hash_words(seeds, DOMAIN_POOL_CHILD, gens, members), K)
    # slots % P, through numpy's much faster division by a scalar
    slots -= slots // np.uint64(P) * np.uint64(P)
    child_idx = slots.view(np.int64)
    u = uniform01(hash_words(seeds, DOMAIN_POOL_LENGTH, gens, members))
    if len(column) < B:
        child_idx, u = child_idx[:, of_row], u[:, of_row]
    # row b's slots are offset by b*P into values.ravel()
    child_idx += (np.arange(B) * P).reshape(B, 1, 1)
    lengths = np.empty((T, B, P))
    phases = np.empty((T, B, P), dtype=np.complex128)
    by_dist = {}
    for b, dm in enumerate(models):
        by_dist.setdefault(dm.dist if dm.lam else None, []).append(b)
    for dist, rows in by_dist.items():
        sel = rows if len(rows) < B else slice(None)
        if dist is None:
            lengths[:, sel] = L
            phases[:, sel] = _phase(w, lengths[0, rows[0], :1])
        else:
            lam = np.array([models[b].lam for b in rows]).reshape(-1, 1)
            lengths[:, sel] = _lengths(omega_from_uniform(dist, u[:, sel]), lam, L)
            phases[:, sel] = _phase(w, lengths[:, sel])
    shape = (T,) + pool.values.shape
    child_idx = child_idx.reshape(shape + (K,))
    lengths = lengths.reshape(shape)
    phases = phases.reshape(shape)
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
    log_ratio = np.log(np.abs(R + 1j * w)) - np.log(np.abs(R_far + 1j * w)) - w.imag * lengths
    current = np.log(R.imag) - 2.0 * log_ratio - np.log(R_far.imag)
    return current, _jensen_gap(R_kids.imag), log_ratio


def _jensen_gap(x):
    """Jensen gap log mean - mean log of positive ``x`` over its last axis, >= 0 up to rounding."""
    return np.log(x.mean(axis=-1)) - np.log(x).mean(axis=-1)


def _auto_burn_in(z, K: int, L: float) -> int:
    """The fewest generations a pool steps before it is collected.

    The pooled recursion forgets its state at the clean rate 2*gamma0
    per generation: 1.5/gamma0 generations are three relaxation times
    1/(2*gamma0), capped at 2000 (1.5 of them at E 2, eta 1e-3).
    """
    g0 = max(gamma_clean(as_point(z).z, K, L), 1e-4)
    return min(2000, max(1, math.ceil(1.5 / g0)))


def _sample(spec, dm, p, n, source, burn_in, pool_size, threads=1) -> tuple:
    """One sampling pass: ``(R, R_kids, lengths, controls)`` of every disorder model.

    ``R`` holds the near-end WT values of the sampled edges, ``R_kids``
    (one more axis, of length K) the near-end values of their children
    and ``lengths`` their lengths, each with a leading model axis.
    "direct" samples (B, n) edges, row b the root edges of model b's
    cut-seeded trees 0..n-1: the K child subtrees of each are solved for
    all B models in one kernel call per child, then merged and pulled
    across the root edge, whose lengths are hashed once per distinct
    ``(master_seed, dist)``.  Its ``controls`` are each model's depth + 2
    rows of :func:`_direct_controls`, from the root omegas and the
    generation means the child solves hand over, so it needs n >= depth
    + 4.  "pool" samples (B, R, P) edges: R = ceil(n / P) >= 2 independent
    pools per model, rows of one stacked pool, pool 0 the model's own and
    pool r its replica of master seed hash_words(master_seed,
    DOMAIN_POOL_REPLICA, r), step max(burn_in, :func:`_auto_burn_in`)
    generations and collect the next, with the members each member drew
    as children.  A lam = 0 row is the clean stationary value at every
    member and child, length L, unsampled.  Pool ``controls`` are None.
    ``threads`` splits the direct source's tree solves.  Arguments are
    checked before any sampling.
    """
    models = _as_models(dm)
    _check_count("threads", threads, 1)
    w = sqrt_upper(p)
    if source == "direct":
        if spec.depth < 1:
            raise ValidationError(
                f"the direct source needs depth >= 1, so that root edges have children, "
                f"got depth {spec.depth}"
            )
        if n < spec.depth + 4:
            raise InsufficientSamplesError(
                f"the direct source needs n >= depth + 4 = {spec.depth + 4} samples, so that "
                f"its control-variate fit on depth + 2 controls keeps a residual degree of "
                f"freedom, got {n}"
            )
        replicas = np.arange(n, dtype=np.uint64)
        seed = cut_seed_disk(p, spec.K, spec.L)
        solves = [
            solve_root_R_batch(
                spec, models, p.z, seed, replicas, threads=threads, addr=ROOT_EDGE.child(k),
                omega_means=True,
            )
            for k in range(spec.K)
        ]
        kids = np.stack([values for values, _ in solves], axis=-1)
        lengths, root_omegas = _root_edge_lengths(spec, models, replicas)
        # the root step of the tree kernel: Kirchhoff merge, then pull
        R = _disk_to_r(_pull(_r_to_disk(kids.sum(axis=-1), w), w, lengths), w)
        means = np.stack([gen for _, gen in solves], axis=-2)
        return R, kids, lengths, _direct_controls(spec, models, p, root_omegas, means)
    if source != "pool":
        raise ValidationError(f"unknown source {source!r}; use 'pool' or 'direct'")
    _check_count("burn_in", burn_in, 0)
    if pool_size is None:
        pool_size = min(4096, n // 8) or n
    _check_count("pool_size", pool_size, 1)
    P = min(pool_size, n // 2)
    pools = math.ceil(n / P)
    K, L = spec.K, spec.L
    rows = [b for b, dm in enumerate(models) if dm.lam != 0.0]
    if rows:
        seeds = np.array([models[b].master_seed for b in rows], dtype=np.uint64)
        replica = np.arange(1, pools, dtype=np.uint64)
        more = hash_words(seeds[:, None], DOMAIN_POOL_REPLICA, replica)
        replicas = []
        for b, row in zip(rows, more):
            replicas += [models[b], *(replace(models[b], master_seed=int(s)) for s in row)]
        pool = pool_init(spec, replicas, p, P)
        m_star = pool.values[0, 0]  # the stationary value every member starts at
    else:
        m_star = stationary_disk(p, K, L)
    m = np.full((len(models), pools, P), m_star, dtype=np.complex128)
    m_kids = np.repeat(m[..., None], K, axis=-1)
    lengths = np.full(m.shape, L)
    if rows:
        for _ in range(max(burn_in, _auto_burn_in(p, K, L))):
            pool_step(pool)
        old = pool.values
        child_idx, le = _pool_advance(pool)
        m[rows] = pool.values.reshape(-1, pools, P)
        m_kids[rows] = old.ravel()[child_idx].reshape(-1, pools, P, K)
        lengths[rows] = le.reshape(-1, pools, P)
    return _disk_to_r(m, w), _disk_to_r(m_kids, w), lengths, None


def _stats(y, controls) -> list:
    """(estimate, stderr, count) of the mean of each model's samples ``y[b]``.

    A direct row, with its ``controls`` from :func:`_sample`, is the
    :func:`_control_fit` of its n iid samples on them.  A pool row, shape
    (R, P), is the plain mean, with the spread of its R independent pool
    means over sqrt(R) as stderr; they are taken about the first, so
    equal means (a lam = 0 row) give exactly 0.
    """
    if controls is not None:
        return [(*_control_fit(y_b, x_b), y_b.size) for y_b, x_b in zip(y, controls)]
    stats = []
    for row in y:
        means = row.mean(axis=-1)
        stderr = (means - means[0]).std(ddof=1) / math.sqrt(len(row))
        stats.append((float(row.ravel().mean()), float(stderr), row.size))
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
        samples their root edges (iid samples).  It reports the
        control-variate fit of the samples on depth + 2 controls of
        mean 0: the omega of each root edge, the K children's subtree
        omega means of each generation summed over the children, which
        carry the samples' first-order response to the disorder, and
        the centred quadratic Jensen term.  The intercept is the
        estimate and the fit's residual spread the standard error
        (docs/derivations section 5), so it needs n >= depth + 4.
        The root and its children sit at different depths, so the
        estimate carries a truncation bias that the standard error
        does not count; against a relaxed pool it was within about
        three combined standard errors from depth 6 on and about twenty
        below at depth 4 (docs/derivations section 5).
        "pool" collects one generation of R = ceil(n / P) independent
        burnt-in pools of P members; members of one pool share its
        stochastic drift, so the standard error is the spread of the R
        pool means over sqrt(R), not the member spread.  A lam = 0 model
        is not sampled: its estimate is gamma0 to rounding, with
        stderr 0.
    burn_in : int
        Pool generations discarded before collecting (pool source), >= 0.
        It is a floor: the pools step at least three relaxation times
        1/(2*gamma0) of the clean contraction, capped at 2000
        generations.
    pool_size : int
        Pool population P, >= 1; defaults to about n/8, capped at 4096.
        P is at most n // 2, so that at least two pools contribute.
    threads : int
        Worker threads of the direct source's tree solves, >= 1; the
        estimate is the same at any thread count.

    Raises
    ------
    InsufficientSamplesError
        Before any sampling, if ``n < 2``, or ``n < depth + 4`` for the
        direct source.
    ValidationError
        Before any sampling, if ``dm`` is neither a ``DisorderModel`` nor
        a non-empty sequence of them, if ``n`` or ``threads`` is not an
        integer (a bool is not) or ``threads < 1``, for the direct
        source if ``spec.depth < 1``, or for the pool source if
        ``burn_in`` or ``pool_size`` is not an integer, ``burn_in < 0``
        or ``pool_size < 1``.
    """
    p = _sampling_point(z, n, "Lyapunov estimation requires eta > 0")
    R, R_kids, lengths, controls = _sample(spec, dm, p, n, source, burn_in, pool_size, threads)
    current, jensen, _ = _gamma_parts(R, R_kids, lengths, sqrt_upper(p))
    stats = _stats(0.5 * (current + jensen), controls)
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


def _sorted_bracket(samples, a: float):
    """The ascending sample and the lower index k of its bracket pair s[k], s[n-1-k]."""
    _check_level(a)
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 2:
        raise InsufficientSamplesError("width statistic needs at least 2 samples")
    k = int(math.floor(a * n + 1e-9))
    return x, min(k, n - 1 - k)


def quantile_width(samples, a: float) -> WidthStats:
    """Width statistic delta(X, a) of a positive sample."""
    x, k = _sorted_bracket(samples, a)
    if not np.all(np.isfinite(x)) or x[0] <= 0.0:
        raise ValidationError("width statistic requires finite positive samples")
    xi_minus = float(x[k])
    xi_plus = float(x[x.size - 1 - k])
    return WidthStats(a=a, n=x.size, xi_minus=xi_minus, xi_plus=xi_plus, delta=1.0 - xi_minus / xi_plus)


def _log_width(log_x, a: float) -> float:
    """delta(X, a) of X = exp(log_x), from the order statistics of ``log_x``.

    exp is increasing, so the bracket pair of X is the exp of that of
    ``log_x``: exponentiating the two gives the bits that sorting X
    gives.  Where one of them leaves the float range (|psi(l)/psi(0)|^2
    underflows at large eta), the width is 1 - exp(lo - hi) instead.
    """
    lx, k = _sorted_bracket(log_x, a)
    if not np.all(np.isfinite(lx)):
        raise ValidationError("width statistic requires finite log samples")
    pair = lx[[k, lx.size - 1 - k]]
    lo, hi = np.exp(pair)
    if lo > 0.0 and hi < math.inf:
        return float(1.0 - lo / hi)
    return float(-np.expm1(pair[0] - pair[1]))


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


def check_jensen(samples, K: int, a: float, method: str = "paired") -> JensenReport:
    """Test E log(K-mean of X) >= E log X + (a^2/4) delta(X, a)^2.

    Parameters
    ----------
    samples : array_like
        Positive iid draws of X, in draw order ("paired" groups
        neighbours, so a sorted input would pair near-equal draws).
    method : str
        "paired" takes the Jensen gap of :func:`_gamma_parts` on each of
        t = n // K >= 2 disjoint K-tuples, in order; ``e_log`` is the mean
        log of the t*K samples used, ``lhs`` that plus the mean gap, and
        the stderr that of the gaps.  "enumerate" averages over all n**K
        ordered tuples exactly (n**K capped).
    """
    x = np.asarray(samples, dtype=float).ravel()
    n = x.size
    _check_count("K", K, 1)
    if method not in ("paired", "enumerate"):
        raise ValidationError(f"unknown method {method!r}; use 'paired' or 'enumerate'")
    need = 2 * K if method == "paired" else 2
    if n < need:
        raise InsufficientSamplesError(f"the {method} method needs {need} samples, got {n}")
    if not np.all(np.isfinite(x)) or np.min(x) <= 0.0:
        raise ValidationError("samples must be finite and positive")

    width = quantile_width(x, a)
    width_term = (a * a / 4.0) * width.delta * width.delta
    if method == "paired":
        used = x[: n // K * K]
        gaps = _jensen_gap(used.reshape(-1, K))
        e_log = float(np.log(used).mean())
        lhs = e_log + float(gaps.mean())
        stderr = float(gaps.std(ddof=1) / math.sqrt(gaps.size))
    else:
        if n**K > 2**24:
            raise BudgetExceededError(f"enumeration over {n}**{K} tuples exceeds the cap")
        acc = x.copy()
        for _ in range(K - 1):
            acc = acc[..., None] + x
        logs = np.log(x)
        e_log = float(logs.mean())
        lhs = float(np.log(acc / K).mean())
        stderr = float(logs.std(ddof=1) / math.sqrt(n))

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
    dm,
    z,
    n: int,
    a: float = 0.25,
    source: str = "direct",
    burn_in: int = 200,
    threads: int = 1,
) -> FluctuationReport | list[FluctuationReport]:
    """Stationary fluctuation widths at z versus their Lyapunov bounds.

    Each sample is an edge with near-end value R(0), length l and K
    children: Im R(0) feeds ``delta_im``, |psi(l)/psi(0)|^2 feeds
    ``delta_mod`` (read off the order statistics of log|psi(l)/psi(0)|,
    so it stays defined where the square underflows), and half the
    current loss plus Jensen gap of :func:`estimate_gamma` feeds
    ``gamma_hat``.  The default "direct" source solves the children of n
    >= depth + 4 independent root edges, giving iid samples for the
    widths, and reports the Lyapunov estimate as the control-variate fit
    of :func:`estimate_gamma` on the root omegas, the children's
    generation means and the centred Jensen term, with the fit's
    residual spread as its standard error.  The "pool" source takes one
    generation of independent burnt-in pools instead, with the pool size
    rule of :func:`estimate_gamma` (P <= n // 2, so at least two pools,
    and ``burn_in`` a floor under a few relaxation times), and reports
    the plain mean with the spread of the pool means as its standard
    error.  Both run the estimators' sampling pass, so ``gamma_hat`` and
    ``gamma_stderr`` are those of ``estimate_gamma`` at the default
    ``pool_size`` bit for bit.

    ``dm`` is one ``DisorderModel``, giving one report, or a non-empty
    sequence of them, giving the list of their reports at this z, equal
    to one call per model; the direct source then solves each tree once
    for all models, the pool source advances one stacked pool.  ``a``
    must lie in (0, 1/2], ``n`` be an integer, ``threads`` (the worker
    threads of the direct source's tree solves) an integer >= 1,
    ``spec.depth`` >= 1 for the direct source and, for the pool source,
    ``burn_in`` an integer >= 0; otherwise ``ValidationError`` is raised
    before any sampling, and ``InsufficientSamplesError`` (a
    ``ValidationError``) for n < 2, or n < depth + 4 with the direct source.
    """
    p = _sampling_point(z, n, "fluctuation widths require eta > 0")
    models = _as_models(dm)
    _check_level(a)
    K = spec.K
    R, R_kids, lengths, controls = _sample(spec, dm, p, n, source, burn_in, None, threads)
    current, jensen, log_ratio = _gamma_parts(R, R_kids, lengths, sqrt_upper(p))
    stats = _stats(0.5 * (current + jensen), controls)
    reports = []
    for b, (model, (gamma, gamma_se, _)) in enumerate(zip(models, stats)):
        d_im = quantile_width(R[b].imag, a).delta
        d_mod = _log_width(2.0 * log_ratio[b], a)
        gamma_hi = gamma + 3.0 * gamma_se
        bound1 = (8.0 / (a * a)) * gamma_hi
        bound2 = (512.0 * (K + 1) ** 2 / (a * a)) * gamma_hi
        reports.append(
            FluctuationReport(
                z=p.z,
                lam=model.lam,
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
        )
    return reports[0] if isinstance(dm, DisorderModel) else reports


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

    n energies are drawn uniformly from [e_min, e_max] (counter RNG keyed
    by the master seed); at each eta, energy i is solved on replica i at
    z = E + i*eta, cut-seeded with the clean fixed point at that z, and
    |R - Phi(E)| to the clean boundary fixed point is thresholded at eps.
    One stacked kernel call solves every (lam, eta) cell, so the cells
    share energies, replicas and trees (common random numbers): each is
    its lone scan bit for bit, and its binomial stderr holds, but cells
    are correlated, so differences across lambdas carry less noise.

    Returns one :class:`ScanCell` per (lam, eta) pair, lambdas outermost.
    ``threads`` worker threads split the tree solve.  Every cell is
    checked before the solve: ``dm`` must be one ``DisorderModel``,
    ``n`` an integer >= 2, each lambda a valid disorder strength, each
    eta finite and > 0, ``e_min`` and ``e_max`` finite with
    0 < e_min < e_max, ``eps`` finite and > 0, and ``threads`` >= 1;
    otherwise ``ValidationError`` is raised.
    """
    _check_model(dm)
    if not (math.isfinite(e_min) and math.isfinite(e_max) and 0 < e_min < e_max):
        raise ValidationError(f"need finite 0 < e_min < e_max, got {e_min}, {e_max}")
    _check_samples(n)
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"eps must be finite and positive, got {eps}")
    _check_count("threads", threads, 1)
    models = [replace(dm, lam=float(lam)) for lam in lambdas]
    etas = [float(eta) for eta in etas]
    if not all(math.isfinite(eta) and eta > 0 for eta in etas):
        raise ValidationError(f"scan requires finite eta > 0 in every cell, got {etas}")
    if not (models and etas):
        return []
    idx = np.arange(n, dtype=np.uint64)
    # word 0 keyed the first cell's energies when each cell drew its own;
    # keeping it keeps that cell's bits
    u = uniform01(hash_words(dm.master_seed, DOMAIN_SCAN_ENERGY, 0, idx))
    energies = e_min + (e_max - e_min) * u
    # rows are eta-major: row k * n + i is energy i at eta k, on replica i
    z = np.concatenate([energies + 1j * eta for eta in etas])
    seeds = np.concatenate(
        [_cut_seed(fixed_point_batch(energies, eta, spec.K, spec.L).m, spec.K) for eta in etas]
    )
    R = solve_root_R_batch(spec, models, z, seeds, np.tile(idx, len(etas)), threads=threads)
    phi_target = fixed_point_batch(energies, 0.0, spec.K, spec.L).phi
    exceed = np.abs(R.reshape(len(models), len(etas), n) - phi_target) > eps
    p_exc = exceed.mean(axis=-1)
    se = np.sqrt(np.maximum(p_exc * (1.0 - p_exc), 1.0 / n) / n)
    return [
        ScanCell(lam=m.lam, eta=eta, eps=eps, n=n, exceedance=float(p), stderr=float(s))
        for m, ps, ss in zip(models, p_exc, se)
        for eta, p, s in zip(etas, ps, ss)
    ]
