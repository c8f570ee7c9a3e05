"""Core recursion engine for WT functions on rooted metric trees.

The forward WT function R = psi'/psi of the square-integrable solution on
the subtree beyond a point is propagated in the unit-disk picture
m = (R - i*sqrt(z)) / (R + i*sqrt(z)), where an edge of length l
multiplies m by its phase q = exp(2i*sqrt(z)*l) and therefore contracts
the disk whenever Im sqrt(z) > 0, and a vertex merge adds the children's
half-plane values.

Tree solves run through one vectorized kernel: it solves the subtree
below an edge address one generation at a time over a batch of
replicas.  The single-edge solvers and R^- are views of that kernel;
R^- carries its solution pair across each edge by the transfer matrix
scaled by exp(i*sqrt(z)*l), whose entries are built from the same
phase q.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import (
    BoundaryPointError,
    BudgetExceededError,
    NumericalDegeneracyError,
    RowDegeneracyError,
    SingularMergeError,
    SingularTransformError,
    ValidationError,
    WtreeError,
)
from .graphmodel import (
    DisorderModel,
    EdgeAddress,
    ROOT_EDGE,
    TreeSpec,
    _as_models,
    _check_address,
    _check_count,
    _check_model,
    _check_word,
    _edge_count,
    _lengths,
    omega_for_generation,
)

__all__ = [
    "HalfPlanePoint",
    "as_point",
    "sqrt_upper",
    "m_from_r",
    "r_from_m",
    "edge_step_m",
    "vertex_merge_m",
    "solve_root_R",
    "solve_edge_R",
    "solve_root_R_batch",
    "solve_R_minus",
    "boundary_extrapolate",
    "WT_INFINITY",
    "VISIT_BUDGET",
    "DEFAULT_ETA_LADDER",
]

#: Distinguished value signalling an infinite WT function (a Dirichlet-type pole).
WT_INFINITY = complex(math.inf, 0.0)

#: Cap on the number of edges a single tree solve may visit.
VISIT_BUDGET = 2**24

#: Default eta ladder for boundary-value extrapolation.
DEFAULT_ETA_LADDER = (1e-1, 1e-2, 1e-3, 1e-4)


@dataclass(frozen=True)
class HalfPlanePoint:
    """Spectral parameter z = E + i*eta with eta >= 0.

    ``eta == 0`` flags boundary mode: the point stands for the limit
    E + i0, which direct recursion must not evaluate; boundary values are
    produced by extrapolation in eta instead.
    """

    E: float
    eta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.E) and math.isfinite(self.eta)):
            raise ValidationError("spectral point must be finite")
        if self.eta < 0.0:
            raise ValidationError(f"eta must be >= 0, got {self.eta}")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)

    @property
    def boundary_mode(self) -> bool:
        return self.eta == 0.0


def as_point(z) -> HalfPlanePoint:
    """Coerce a complex number or HalfPlanePoint into a HalfPlanePoint.

    An array of points raises ``ValidationError``: the scalar entry points
    take one point, and only the batch solver takes one per replica.
    """
    if isinstance(z, HalfPlanePoint):
        return z
    if isinstance(z, np.ndarray) and z.ndim:
        raise ValidationError(f"expected one spectral point, got an array of shape {z.shape}")
    zc = complex(z)
    return HalfPlanePoint(zc.real, zc.imag)


def sqrt_upper(z) -> complex:
    """Square root of z with Im sqrt(z) > 0.

    In boundary mode (eta = 0) only E > 0 is supported and the root is
    the positive real sqrt(E).

    Raises
    ------
    BoundaryPointError
        If eta = 0 and E <= 0.
    """
    p = as_point(z)
    if p.boundary_mode:
        if p.E <= 0.0:
            raise BoundaryPointError(
                f"boundary-mode sqrt requires E > 0, got E = {p.E}"
            )
        return complex(math.sqrt(p.E), 0.0)
    return cmath.sqrt(p.z)


def m_from_r(R: complex, z) -> complex:
    """Unit-disk transform m = (R - i*w) / (R + i*w), w = sqrt_upper(z); WT_INFINITY maps to 1."""
    w = sqrt_upper(z)
    if R == WT_INFINITY:
        return complex(1.0, 0.0)
    if R + 1j * w == 0:
        raise SingularTransformError("m transform evaluated at its pole R = -i*sqrt(z)")
    return _r_to_disk(R, w)


def r_from_m(m: complex, z) -> complex:
    """Inverse disk transform R = i*w*(1 + m) / (1 - m), w = sqrt_upper(z)."""
    w = sqrt_upper(z)
    if m == 1:
        raise SingularTransformError("inverse disk transform evaluated at m = 1")
    return _disk_to_r(m, w)


def edge_step_m(m_far: complex, L_e: float, z) -> complex:
    """Pull a disk value from the far end of an edge to its near end.

    The map is linear, m_near = exp(2i*sqrt(z)*L_e) * m_far, and contracts
    the modulus by exactly exp(-2*L_e*Im sqrt(z)).
    """
    w = sqrt_upper(z)
    return cmath.exp(2j * w * L_e) * m_far


def vertex_merge_m(children, z) -> complex:
    """Merge the K child disk values across a Kirchhoff vertex.

    Equivalent to transforming every child to the half plane, adding the
    WT values, and transforming back.

    Raises
    ------
    SingularMergeError
        If any child sits at the singular point m = 1 (R at infinity).
    """
    zeta = 0.0 + 0.0j
    for m in children:
        den = 1.0 - m
        if den == 0:
            raise SingularMergeError("vertex merge received a child at m = 1")
        zeta += (1.0 + m) / den
    den = zeta + 1.0
    if den == 0:
        raise SingularMergeError("vertex merge hit the singular total zeta = -1")
    return (zeta - 1.0) / den


def _check_seed_m(seed_m) -> complex:
    """One far-end seed as a complex, checked; an array raises, as :func:`as_point` does."""
    if isinstance(seed_m, np.ndarray) and seed_m.ndim:
        raise ValidationError(f"expected one truncation seed, got an array of shape {seed_m.shape}")
    seed_m = complex(seed_m)
    if not cmath.isfinite(seed_m):
        raise ValidationError(f"truncation seed must be finite, got {seed_m}")
    if abs(seed_m) > 1.0 + 1e-12:
        raise ValidationError(f"truncation seed must satisfy |m| <= 1, got |m| = {abs(seed_m)}")
    if seed_m == 1:
        raise ValidationError("truncation seed m = 1 is the singular point of the merge")
    return seed_m


@dataclass
class BatchCapture:
    """Per-generation arrays captured during a batch solve.

    ``m_near[g]`` and ``lengths[g]`` have shape ``(S, K**g)`` and hold the
    near-end disk values and edge lengths of generation ``g``.
    """

    m_near: list
    lengths: list


#: 1 as a 0-d complex array: a ufunc takes it faster than the python 1.0,
#: which it converts to this same complex128 value on every call
_ONE = np.array(1.0 + 0.0j)


def _merge_terms(m: np.ndarray, den=None) -> np.ndarray:
    """Merge terms (1 + m) / (1 - m) of disk values, overwriting ``m``.

    The term of a disk value is R / (i*w) for its half-plane value R, so
    the Kirchhoff merge adds terms where the half plane adds R.  ``den``,
    an array of m's shape, takes the one temporary if given.
    """
    den = np.subtract(_ONE, m, den)
    m += _ONE
    m /= den
    return m


def _sibling_sum(v: np.ndarray, out=None) -> np.ndarray:
    """Sums of ``v`` over its last axis, its K columns added in order, into ``out`` if given.

    Column slices cost a fraction of a reduction's per-element work.  For
    K <= 3 the sums carry the bits of ``v.sum(axis=-1)``, which adds that
    few values in order too (a lone value is added to 0.0, as numpy adds
    it); longer rows differ from numpy's pairwise order in the last bits.
    """
    K = v.shape[-1]
    s = np.add(v[..., 0], v[..., 1] if K > 1 else 0.0, out=out)
    for k in range(2, K):
        s += v[..., k]
    return s


def _merge_sum(h: np.ndarray, out=None, den=None) -> np.ndarray:
    """Merged disk values (zeta - 1) / (zeta + 1), zeta the sum of ``h`` over its last axis.

    ``h`` holds the :func:`_merge_terms` of each parent's K children
    along its last axis; the result drops that axis.  ``out`` and
    ``den``, arrays of the result's shape, take the result and the one
    temporary if given; ``den`` may overlap ``h``, which is read before
    it is written.
    """
    zeta = _sibling_sum(h, out)
    den = np.add(zeta, _ONE, den)
    # into ``out``: zeta of a lone row of K terms is a numpy scalar
    return np.divide(np.subtract(zeta, _ONE, out), den, out)


def _phase(w, le, out=None):
    """Edge phases exp(2i*w*le), the factor that pulls a disk value across an edge."""
    phase = np.multiply(2j * w, le, out=out)
    return np.exp(phase, out=phase)


def _pull(m, w, le, out=None):
    """Pull far-end disk values to the near ends, exp(2i*w*le) * m, into ``out`` if given."""
    return _times_phase(_phase(w, le, out), m)


def _times_phase(phase, m):
    """The pulled values ``phase * m``, in place in ``phase`` unless it has one element."""
    # numpy rounds an in-place complex product of a single element
    # differently from an out-of-place one; one-element blocks multiply
    # out of place so that every block gets the out-of-place rounding
    return np.multiply(phase, m, out=phase if phase.size > 1 else None)


def _r_to_disk(R, w):
    """Disk transform (R - i*w) / (R + i*w), for scalars or arrays."""
    return (R - 1j * w) / (R + 1j * w)


def _disk_to_r(m, w):
    """Inverse disk transform i*w*(1 + m) / (1 - m), for scalars or arrays."""
    # Named, so numpy cannot reuse it as the output of the product: above
    # 256 KiB it would, and an in-place product with a scalar w rounds
    # unlike ``w * array``, so a row's bits would depend on its batch size.
    num = 1.0 + m
    return 1j * w * num / (1.0 - m)


def _edge_ratio(R, R_far, w, le):
    """Amplitude ratio psi(le) / psi(0) across an edge with near- and far-end WT values R, R_far.

    psi(x) is proportional to exp(i*w*x) (1 - m(x)) and 1 - m = 2i*w /
    (R + i*w), so the ratio is exp(i*w*le) (R + i*w) / (R_far + i*w), the
    factors whose logs ``ensemble._gamma_parts`` takes.  Unlike cos(w*le)
    + R*sin(w*le)/w it neither cancels nor overflows at large Im(w)*le.
    """
    iw = 1j * w
    # ufunc calls, so numpy never takes a product in place (see _disk_to_r)
    return np.divide(np.multiply(np.exp(np.multiply(iw, le)), np.add(R, iw)), np.add(R_far, iw))


def _transfer(u, up, w, q):
    """(psi, psi') carried across an edge of phase q = exp(2i*w*l), times exp(i*w*l).

    The transfer matrix rows (cos, sin/w), (-w sin, cos) at w*l grow like
    exp(Im(w) l); times exp(i*w*l) they are ((1 + q)/2, (q - 1)/(2i*w))
    and (-w(q - 1)/(2i), (1 + q)/2), bounded for |q| <= 1.  For scalars
    or arrays.
    """
    c = 0.5 * (1.0 + q)
    s = (q - 1.0) / 2j  # exp(i*w*l) sin(w*l)
    return c * u + s * up / w, c * up - w * s * u


def _one_tree(reps):
    """The first row of a replica column whose rows all carry one replica, else the column.

    Rows of one replica draw one tree, so the kernel hashes, draws and
    sizes its edges once per generation, as a ``(1, K**g)`` row that
    :func:`_pull` broadcasts against the per-row ``w``.
    """
    return reps[:1] if reps.shape[0] > 1 and (reps == reps[0]).all() else reps


def _model_lengths(models, L: float, draw):
    """Edge lengths of each of the B ``models``, stacked on a new leading axis, and their omegas.

    ``draw(dm)`` gives the omegas of some edges; omega depends on the
    model only through ``(master_seed, dist)``, so it is drawn once per
    distinct pair, and model b takes L * exp(lam_b * omega) from it.
    Returns ``(lengths, omegas)``, the drawn omegas keyed by that pair.
    """
    omegas = {}
    out = None
    for b, dm in enumerate(models):
        key = (dm.master_seed, dm.dist)
        if key not in omegas:
            omegas[key] = draw(dm)
        if out is None:
            out = np.empty((len(models),) + omegas[key].shape)
        _lengths(omegas[key], dm.lam, L, out=out[b])
    return out, omegas


def _generation_sums(omega: np.ndarray, K: int, n: int) -> np.ndarray:
    """Row sums of every generation of a subtree's omegas, shape (rows, n + 1).

    ``omega``, shape (rows, edges), holds the subtree's generations 0..n
    below its top edge laid out generation-major, as
    :func:`omega_for_generation` draws them.  Siblings are added K at a
    time in digit order (:func:`_sibling_sum`), from the deepest digit
    up: the columns past the first, K at a time, are again a
    generation-major layout one level shallower, whose first column is
    the next generation's sum.  A sum therefore has the same bits whether
    the subtree is reduced whole or as its K child subtrees (see
    :func:`_solve_subtree`).
    """
    rows = omega.shape[0]
    out = np.empty((rows, n + 1))
    out[:, 0] = omega[:, 0]
    v = omega
    for j in range(1, n + 1):
        v = _sibling_sum(v[:, 1:].reshape(rows, -1, K))
        out[:, j] = v[:, 0]
    return out


def _joined(caps, axis):
    """One capture from the captures of row blocks (axis -2) or of sibling subtrees (axis -1).

    A lone capture is returned as it is, without copies.
    """
    if len(caps) == 1:
        return caps[0]
    return BatchCapture(
        m_near=[np.concatenate(g, axis=axis) for g in zip(*(c.m_near for c in caps))],
        lengths=[np.concatenate(g, axis=axis) for g in zip(*(c.lengths for c in caps))],
    )


#: Memory budget of the tree kernel, in elements of a block's (B, rows,
#: edges) arrays for B models; see :func:`_solve_subtree`.  Blocks are
#: swept once per generation, so they should stay close to the cache.
#: Medians of 6 in-process rounds on a 2-vCPU VM (2 MB L2 per core,
#: numpy 2.4), at 2**20, 2**19, 2**18, 2**17 and 2**16 elements per
#: model: the two stacked child solves of a ``direct-fluct`` iteration
#: (K=2, depth 12, 500 replicas, two lambdas, so 2**17 per model here)
#: took 0.85, 0.79, 0.74, 0.72 and 0.73 s; a one-tree K=3 depth-8 sweep
#: of 400 points on 2 threads took 0.17, 0.19, 0.17, 0.17 and 0.19 s.
_BLOCK_ELEMS = 2**18

#: A one-row block of at most this many edges (a single-edge view of a
#: small subtree) takes the phases of all its edges in one exp call, into
#: a buffer of its own of at most 64 KiB, instead of two numpy calls per
#: generation, which are most of a small generation's cost.  Larger
#: blocks compute each generation's phases in their scratch buffers.
_ONE_CALL_PHASES = 2**12


def _solve_subtree(spec, models, prefix, w, seed, reps, capture, sums=False):
    """Near-end disk values of the edge ``prefix``, one per model and replica.

    ``w`` and ``reps`` have shape ``(S,)``, the far-end seeds at
    generation ``spec.depth`` ``(S,)`` or ``(B, S)``, and the values
    ``(B, S)`` for the B disorder ``models``.  A subtree of more than
    one leaf whose edges, times B, exceed :data:`_BLOCK_ELEMS` is split:
    its K child subtrees are solved and merged, and its top edge is
    solved as a one-edge subtree seeded with that merge, so memory stays
    bounded at any depth (a chain, K = 1, has one leaf and never splits).
    Otherwise its replicas are solved in blocks of ``_BLOCK_ELEMS // (B
    * edges)`` rows (at least one), each block for all B models at once:
    one :func:`omega_for_generation` call per distinct ``(master_seed,
    dist)`` draws every edge of the block (of the whole call, when all
    rows carry one replica), each model sizes its edges from those
    omegas, and the ``(B, rows, edges)`` block is then solved one
    generation at a time (a one-row block of at most
    :data:`_ONE_CALL_PHASES` edges takes every edge's phase in one call
    first).  A generation is three :func:`_merge_terms` ufuncs, the
    K - 1 adds and three ufuncs of :func:`_merge_sum` and one pull
    (:func:`_times_phase`), on flat slices of two scratch buffers, and
    a capture copies the pulled values once.
    Neither splits nor block sizes change a bit,
    so every model's values are the bits it gets alone.  Returns ``(m,
    capture, gen)``, the capture indexed by generation below ``prefix``,
    each entry of shape ``(B, S, K**j)``, and with ``sums`` ``gen`` the
    :func:`_generation_sums` of the omegas each block drew, shape ``(B,
    S, n + 1)`` (else None): a split subtree adds its children's sums in
    digit order (:func:`_sibling_sum`), the last step of that reduction,
    so splits change no bit of them either.
    """
    K = spec.K
    B = len(models)
    g0 = len(prefix)
    n = spec.depth - g0
    leaves = K**n
    edges = _edge_count(K, n)
    if leaves > 1 and B * edges > _BLOCK_ELEMS:
        kids = [
            _solve_subtree(spec, models, prefix + (d,), w, seed, reps, capture, sums)
            for d in range(K)
        ]
        h = _merge_terms(np.stack([m_d for m_d, _, _ in kids], axis=-1))
        top = replace(spec, depth=g0)
        m, cap, gen = _solve_subtree(top, models, prefix, w, _merge_sum(h), reps, capture, sums)
        if capture:
            below = _joined([c for _, c, _ in kids], -1)
            cap = BatchCapture(cap.m_near + below.m_near, cap.lengths + below.lengths)
        if sums:
            # the last step of _generation_sums: the K children's sums, in digit order
            deeper = _sibling_sum(np.stack([s_d for _, _, s_d in kids], axis=-1))
            gen = np.concatenate([gen, deeper], axis=-1)
        return m, cap, gen

    S = reps.size
    chunk = max(1, _BLOCK_ELEMS // (B * edges))
    gens = range(g0, spec.depth + 1)
    out = np.empty((B, S), dtype=np.complex128)
    gen = np.empty((B, S, n + 1)) if sums else None
    caps = []
    # Two flat scratch buffers serve every block and generation, so the
    # solve touches fresh memory once instead of once per block.  A
    # generation's values are flat, (B, rows, K**j) in C order, so each
    # parent's K children sit side by side: generation j's values end in
    # ``a`` (or in the phases of a one-call block), and its merge and the
    # leaf seeds work in ``b``.
    a, b = np.empty((2, B * min(chunk, S) * leaves), dtype=np.complex128)

    def block_lengths(r):
        # every edge length of the rows ``r``, generation-major: generation
        # j (below prefix) is the slice of K**j columns that ends at ``end``;
        # and, with ``sums``, the rows' generation sums per model, reduced
        # once per distinct (master_seed, dist)
        lengths, omegas = _model_lengths(
            models, spec.L, lambda dm: omega_for_generation(dm, K, gens, r, prefix)
        )
        if not sums:
            return lengths, None
        reduced = {key: _generation_sums(omega, K, n) for key, omega in omegas.items()}
        return lengths, np.stack([reduced[dm.master_seed, dm.dist] for dm in models])

    # rows that all carry one replica solve one tree: it is drawn once for every block
    one = _one_tree(reps[:, None])
    tree = block_lengths(one) if one.shape[0] == 1 else None
    w2 = 2j * w[:, None]  # each row's phases are exp(w2 * le)
    for lo in range(0, S, chunk):
        hi = min(lo + chunk, S)
        R = hi - lo
        lengths, block_sums = block_lengths(_one_tree(reps[lo:hi, None])) if tree is None else tree
        if sums:
            gen[:, lo:hi] = block_sums
        rows = B * R
        m = b[: rows * leaves]
        m.reshape(B, R, leaves)[...] = seed[..., lo:hi, None]
        phases = None
        if rows == 1 and edges <= _ONE_CALL_PHASES:
            phases = np.multiply(w2[lo:hi], lengths).reshape(-1)
            np.exp(phases, phases)
        if capture:
            cap = BatchCapture([None] * (n + 1), [None] * (n + 1))
            caps.append(cap)
        # generation j's edges are the columns s:e of the lengths
        e = edges
        for j in range(n, -1, -1):
            s = e - K**j
            cells = rows * (e - s)
            if j < n:
                h = _merge_terms(m, b[: cells * K])
                m = _merge_sum(h.reshape(-1, K), b[:cells], a[:cells])
            if phases is None:
                # _phase, with 2i*w taken once per call
                phase = a[:cells]
                np.multiply(w2[lo:hi], lengths[..., s:e], phase.reshape(B, R, -1))
                np.exp(phase, phase)
            else:
                phase = phases[s:e]
            m = _times_phase(phase, m)
            if capture:
                cap.m_near[j] = m.reshape(B, R, -1).copy()  # the next _merge_terms overwrites m
                le = lengths[..., s:e]
                # a block of one replica drew its lengths once, for every row
                cap.lengths[j] = le if le.shape[1] == R else np.broadcast_to(le, (B, R, e - s))
            e = s
        out[:, lo:hi] = m.reshape(B, R)
    return out, _joined(caps, -2) if capture else None, gen


_NONFINITE = "tree solve produced non-finite WT values"
_LOWER = "tree solve left the upper half plane"


def _replica_array(replicas) -> np.ndarray:
    """Replica indices as a flat uint64 array, each checked to lie in [0, 2**64).

    An array must have an integer dtype; any other sequence (or a single
    value) must hold ints or numpy integers, bools excluded.
    """
    if isinstance(replicas, np.ndarray):
        if replicas.dtype.kind not in "iu":
            raise ValidationError(f"replicas must have an integer dtype, got {replicas.dtype}")
        if replicas.dtype.kind == "i" and replicas.size:
            _check_word("replica", replicas.min())
        return replicas.astype(np.uint64, copy=False).ravel()
    try:
        values = list(replicas)
    except TypeError:
        values = [replicas]
    for v in values:
        _check_word("replica", v)
    return np.array(values, dtype=np.uint64)


def _batch_rows(z, seed_m, S: int):
    """The checked per-row square roots w of z and far-end seeds of a batch of S rows.

    ``z`` and ``seed_m`` are each one value for every row or an array
    of one per row.
    """
    if isinstance(z, np.ndarray):
        z_arr = np.asarray(z, dtype=np.complex128).ravel()
        if z_arr.size != S:
            raise ValidationError("per-replica z array must match the replica count")
        if not np.all(np.isfinite(z_arr)):
            raise ValidationError("per-replica z values must be finite")
        if not np.all(z_arr.imag > 0.0):
            raise ValidationError("direct recursion requires eta > 0 at every point")
        w = np.sqrt(z_arr)
    else:
        p = as_point(z)
        if p.boundary_mode:
            raise ValidationError("direct recursion requires eta > 0; boundary values need extrapolation")
        w = np.full(S, sqrt_upper(p), dtype=np.complex128)
    if isinstance(seed_m, np.ndarray):
        seed = np.asarray(seed_m, dtype=np.complex128).ravel()
        if seed.size != S:
            raise ValidationError("per-replica seed array must match the replica count")
        if np.any(np.abs(seed) > 1.0 + 1e-12) or np.any(seed == 1.0):
            raise ValidationError("truncation seeds must satisfy |m| <= 1, m != 1")
    else:
        seed = np.full(S, _check_seed_m(seed_m), dtype=np.complex128)
    return w, seed


def _check_visits(spec, prefix) -> None:
    """Raise ``BudgetExceededError`` for a subtree below ``prefix`` of more than :data:`VISIT_BUDGET` edges."""
    n_edges = _edge_count(spec.K, spec.depth - len(prefix))
    if n_edges > VISIT_BUDGET:
        raise BudgetExceededError(
            f"tree solve would visit {n_edges} edges, budget is {VISIT_BUDGET}"
        )


def _solve(spec, dm, w, seed, replicas, prefix, capture, threads=1, omega_means=False):
    """Solve the subtree below ``prefix`` for checked rows.

    ``w``, ``seed`` and ``replicas`` hold each row's sqrt(z), far-end
    seed and uint64 replica (see :func:`_batch_rows` and
    :func:`_replica_array`).  ``dm`` is one model, giving values of shape
    ``(S,)``, or a sequence of B models, giving ``(B, S)``.  With
    ``threads`` > 1 the replicas are split into that many contiguous
    parts (at least one each), solved on a thread pool and joined before
    the one degeneracy check, so values, failed rows and their reasons
    do not depend on the thread count.  Returns the values, then the
    capture if ``capture``, then the generation means of the omegas if
    ``omega_means``, as a tuple when there is more than one.
    """
    models = _as_models(dm)
    S = replicas.size
    _check_visits(spec, prefix)

    def part(lo, hi):
        return _solve_subtree(
            spec, models, prefix, w[lo:hi], seed[lo:hi], replicas[lo:hi], capture, omega_means
        )

    def quiet_part(lo, hi):
        # numpy's error state is per thread, so each worker sets its own
        with np.errstate(all="ignore"):
            return part(lo, hi)

    # Degenerate rows (a NaN seed row, a singular merge) are found and
    # named below, so the arithmetic that produces them stays quiet.
    with np.errstate(all="ignore"):
        n_parts = min(threads, S)
        if n_parts <= 1:
            m, cap, sums = part(0, S)
        else:
            cuts = [S * k // n_parts for k in range(n_parts + 1)]
            with ThreadPoolExecutor(max_workers=n_parts) as ex:
                parts = list(ex.map(quiet_part, cuts[:-1], cuts[1:]))
            m = np.concatenate([m_p for m_p, _, _ in parts], axis=-1)
            cap = _joined([c for _, c, _ in parts], -2) if capture else None
            sums = np.concatenate([s_p for _, _, s_p in parts], axis=-2) if omega_means else None
        out = _disk_to_r(m[0] if isinstance(dm, DisorderModel) else m, w)
    if omega_means:
        # generation j below prefix has K**j edges
        sums /= float(spec.K) ** np.arange(sums.shape[-1])
    if isinstance(dm, DisorderModel):
        if capture:
            cap = BatchCapture([a[0] for a in cap.m_near], [a[0] for a in cap.lengths])
        if omega_means:
            sums = sums[0]
    if not (np.isfinite(out).all() and (out.imag > 0.0).all()):
        finite = np.isfinite(out)
        bad = ~(finite & (out.imag > 0.0))
        reasons = np.where(finite, np.where(bad, _LOWER, None), _NONFINITE).tolist()
        out[bad] = complex(math.nan, math.nan)
        raise RowDegeneracyError(_LOWER if finite.all() else _NONFINITE, out, reasons)
    extra = ((cap,) if capture else ()) + ((sums,) if omega_means else ())
    return (out,) + extra if extra else out


def _failed_rows(exc: WtreeError, n: int):
    """Root values and per-row status ("ok" or error text) after ``exc``.

    A :class:`RowDegeneracyError` fails only the rows it names; any
    other error fails all ``n`` rows.
    """
    if isinstance(exc, RowDegeneracyError):
        prefix = f"{NumericalDegeneracyError.__name__}: "
        return exc.values, ["ok" if r is None else prefix + r for r in exc.reasons]
    return np.full(n, complex(math.nan, math.nan)), [f"{type(exc).__name__}: {exc}"] * n


def solve_edge_R(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    addr: EdgeAddress = ROOT_EDGE,
    seed_m: complex = 0j,
    replica: int = 0,
) -> complex:
    """WT value at the near end of the edge ``addr`` of a truncated tree.

    Backward recursion in the disk picture: every edge of generation
    ``spec.depth`` is seeded with ``seed_m`` at its far end, deeper ends
    merge their children, and each edge applies the disk step with its
    own random length.  This is a one-replica view of the batch kernel
    behind :func:`solve_root_R_batch`, whose working memory stays within
    one element budget at any depth.  A subtree of more than
    :data:`VISIT_BUDGET` edges raises ``BudgetExceededError`` before any
    solve.

    Parameters
    ----------
    spec, dm : TreeSpec, DisorderModel
    z : HalfPlanePoint or complex
        Spectral parameter with eta > 0; an array raises
        ``ValidationError``.
    addr : EdgeAddress
        Edge whose near end is evaluated; the recursion covers the
        subtree hanging from it (truncated at the global depth).
    seed_m : complex
        Far-end disk seed at the cut generation, |m| <= 1, m != 1, not an array.
    replica : int
        Disorder replica index.

    Returns
    -------
    complex
        R at the near end; Im R > 0.
    """
    _check_model(dm)
    _check_address(spec, addr)
    w, seed = _batch_rows(as_point(z), _check_seed_m(seed_m), 1)
    return complex(_solve(spec, dm, w, seed, _replica_array([replica]), addr.path, False)[0])


def solve_root_R(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    seed_m: complex = 0j,
    replica: int = 0,
) -> complex:
    """WT value at the near end of the root edge; see :func:`solve_edge_R`."""
    return solve_edge_R(spec, dm, z, ROOT_EDGE, seed_m, replica)


def solve_root_R_batch(
    spec: TreeSpec,
    dm,
    z,
    seed_m=0j,
    replicas=None,
    capture: bool = False,
    threads: int = 1,
    addr: EdgeAddress = ROOT_EDGE,
    omega_means: bool = False,
):
    """Vectorized root solves across disorder replicas.

    Runs the backward recursion one generation at a time over a batch of
    replicas.  Edge lengths come from the address-based counter stream,
    so every replica's tree is the one :func:`edge_length` describes.
    Rows may share a replica (one tree at many z, say): a block whose
    rows all carry one replica hashes and sizes that tree's edges once
    per generation, and each row gets the bits it would get alone.

    Working memory has one budget per thread, ``_BLOCK_ELEMS`` elements
    of a block's ``(B, rows, edges)`` arrays for B models, at any depth
    and any B: a subtree whose one row holds more edges than that for
    all models is solved child subtree by child subtree, and the rest in
    row blocks of that many elements (at least one row).  Splits and
    block sizes change no value.  A capture holds every edge, outside
    the budget.

    Parameters
    ----------
    spec : TreeSpec
    dm : DisorderModel or sequence of DisorderModel
        One model gives values of shape ``(S,)`` for S replicas; a
        non-empty sequence of B models gives ``(B, S)``, row b equal bit
        for bit to the solve of model b alone.  Omega does not depend on
        lam, so the models share each drawn tree: a block is hashed once
        per distinct ``(master_seed, dist)`` and solved for all B models.
    z : complex, HalfPlanePoint, or np.ndarray
        Spectral parameter(s) with eta > 0; an array gives one point per
        replica.
    seed_m : complex or np.ndarray
        Far-end disk seed, scalar or one value per replica.
    replicas : array_like of int
        Replica indices; defaults to ``[0]``.
    capture : bool
        Also return per-generation near-end values and lengths, with a
        leading model axis for a sequence ``dm``.
    threads : int
        Worker threads, >= 1: the replicas are split into contiguous
        parts solved on a thread pool.  Values, captures and failed
        rows are the same at any thread count.
    addr : EdgeAddress
        Edge whose near end is evaluated, the root edge by default; the
        batch form of :func:`solve_edge_R`, with the capture indexed by
        generation below ``addr``.
    omega_means : bool
        Also return, per replica, the mean omega of every generation of
        the solved subtree, ``addr``'s own edge first.  They are reduced
        from the omegas the solve draws anyway, siblings K at a time from
        the deepest digit up, so they do not depend on thread count,
        block size, subtree splits or the number of stacked models.
        Without it the solve does no work for them.

    Returns
    -------
    np.ndarray, or a tuple that starts with it
        WT values at the near end of ``addr``, shape ``(len(replicas),)``,
        or ``(B, len(replicas))`` for B models; then the capture if
        ``capture``; then the omega means if ``omega_means``, shape
        ``(len(replicas), G)``, or ``(B, len(replicas), G)`` for B models,
        with G = ``spec.depth - addr.generation + 1`` generations.

    Raises
    ------
    ValidationError
        Before any solve, for invalid ``dm``, z, seeds, ``threads`` or
        ``addr``; as ``BudgetExceededError`` for a subtree of more than
        :data:`VISIT_BUDGET` edges.
    RowDegeneracyError
        When some rows (a NaN seed row, say) come out non-finite or with
        Im R <= 0.  Its ``values`` hold every row, NaN where one failed,
        and its ``reasons`` the failure text per row, None where good.
    """
    _check_address(spec, addr)
    _check_count("threads", threads, 1)
    replicas = _replica_array([0] if replicas is None else replicas)
    w, seed = _batch_rows(z, seed_m, replicas.size)
    return _solve(
        spec, dm, w, seed, replicas, addr.path, capture, threads, omega_means=omega_means
    )


def solve_R_minus(
    spec: TreeSpec,
    dm: DisorderModel,
    z,
    target: EdgeAddress = ROOT_EDGE,
    position: float = 0.0,
    replica: int = 0,
    seed_m: complex = 0j,
) -> complex:
    """Backward WT function R^- at a point of the tree.

    R^- = -psi'/psi of the solution determined by the root condition and
    by the sibling subtrees passed on the walk from the root to
    ``target``.  The pair (psi, psi') is propagated projectively, so the
    Dirichlet root value (alpha = 0, R^- infinite) is handled exactly;
    at the root near end itself that case returns :data:`WT_INFINITY`.

    Each edge carries the pair by the transfer matrix scaled by
    exp(i*sqrt(z)*l) (:func:`_transfer`), and each generation rescales
    it by a power of two, which is exact, so the walk stays finite at any
    eta (at large eta R^- tends to i*sqrt(z)).  Crossing a vertex into
    child f adds every sibling's forward WT value to psi'/psi.  Path
    lengths and the siblings' near-end disk values are read from the
    kernel's capture of one one-replica solve of the whole tree, whose
    root value is neither converted nor checked; each sibling's value is
    the inverse disk transform of its disk value at that solve's
    sqrt(z).  So :data:`VISIT_BUDGET` caps that tree's edge count and
    memory grows with it.

    Raises
    ------
    ValidationError
        For boundary-mode or array z, an array or out-of-range seed, or
        out-of-range targets, positions or replicas.
    NumericalDegeneracyError
        If the pair degenerates, which eta > 0 excludes.
    """
    w, seed = _batch_rows(as_point(z), _check_seed_m(seed_m), 1)
    replicas = _replica_array([replica])
    _check_model(dm)
    _check_address(spec, target)
    if isinstance(position, (bool, np.bool_)) or not isinstance(
        position, (int, float, np.integer, np.floating)
    ):
        raise ValidationError(f"position must be a real number, got {position!r}")
    alpha = spec.alpha
    if alpha == 0.0 and target.generation == 0 and position == 0.0:
        return WT_INFINITY

    K = spec.K
    _check_visits(spec, ())
    # the kernel's capture, (model, row, edge) per generation: the walk
    # needs no root value, so none is converted or checked
    with np.errstate(all="ignore"):
        _, cap, _ = _solve_subtree(spec, (dm,), (), w, seed, replicas, True)
    w = complex(w[0])
    # index of the path's edge within each generation, the target's last
    idx = list(accumulate(target.path, lambda i, d: i * K + d, initial=0))
    lengths = [float(cap.lengths[g][0, 0, i]) for g, i in enumerate(idx)]
    if not 0.0 <= position <= lengths[-1]:
        raise ValidationError(
            f"position {position} outside the target edge of length {lengths[-1]}"
        )
    lengths[-1] = position
    q = _phase(w, np.array(lengths)).tolist()

    u = complex(math.sin(alpha))
    up = complex(math.cos(alpha))
    for g, d in enumerate(target.path):
        u, up = _transfer(u, up, w, q[g])
        kids = cap.m_near[g + 1][0, 0, idx[g] * K : (idx[g] + 1) * K].tolist()
        up -= sum(_disk_to_r(m, w) for j, m in enumerate(kids) if j != d) * u
        # exact: a power of two (a degenerate pair keeps its 0, inf or NaN)
        scale = math.ldexp(1.0, -math.frexp(max(abs(u), abs(up)))[1])
        u, up = u * scale, up * scale
    u, up = _transfer(u, up, w, q[-1])
    if u == 0 or not cmath.isfinite(-up / u):
        raise NumericalDegeneracyError("backward WT value is non-finite")
    return -up / u


def _eta_intercept(etas, values):
    """Value at eta = 0 of the least-squares line through ``(etas, values)``.

    ``values`` holds one row per eta; every remaining axis is fitted on
    its own, in closed form.
    """
    x = np.asarray(etas, dtype=float)
    y = np.asarray(values)
    dx = (x - x.mean()).reshape((-1,) + (1,) * (y.ndim - 1))
    y_mean = y.mean(axis=0)
    slope = (dx * (y - y_mean)).sum(axis=0) / (dx * dx).sum()
    return y_mean - slope * x.mean()


def _eta_ladder(etas) -> list:
    """The ladder as floats, checked to hold at least two distinct finite etas > 0.

    Fewer distinct etas leave the line fit of :func:`_eta_intercept`
    undetermined (its slope divides by zero).
    """
    etas = [float(t) for t in etas]
    if len(set(etas)) < 2 or not all(0.0 < t < math.inf for t in etas):
        raise ValidationError(
            f"eta ladder needs at least two distinct finite positive entries, got {etas}"
        )
    return etas


def boundary_extrapolate(fn, E: float, etas=DEFAULT_ETA_LADDER):
    """Boundary value at E + i0 via a linear fit over a decreasing eta ladder.

    Parameters
    ----------
    fn : callable
        Maps a complex z (eta > 0) to a complex or float value.
    E : float
        Real energy.
    etas : sequence of float
        Finite positive ladder with at least two distinct entries; the
        fit value at eta = 0 is returned.

    Returns
    -------
    complex
        Extrapolated boundary value.
    """
    etas = _eta_ladder(etas)
    vals = np.asarray([complex(fn(complex(E, t))) for t in etas])
    return complex(_eta_intercept(etas, vals))
