"""Tree geometry, boundary conditions, and the random edge-length model.

The tree is rooted: a single edge leaves the root vertex, and every
interior vertex joins one parent edge to `K` child edges.  Edges are
identified by the sequence of child indices walked from the root edge
(`EdgeAddress`), and every random quantity is produced by a counter-based
hash of ``(master_seed, address, replica)`` so that values are
bit-reproducible under any evaluation order, lazy traversal, or
parallel scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AddressRangeError, ValidationError

__all__ = [
    "TreeSpec",
    "DisorderModel",
    "EdgeAddress",
    "ROOT_EDGE",
    "DISTS",
    "OMEGA_VARIANCE",
    "edge_length",
    "resample_omega",
    "omega_for_generation",
    "hash_words",
    "uniform01",
    "omega_from_uniform",
]

_MASK64 = (1 << 64) - 1
_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Domain-separation words for independent random streams.
DOMAIN_EDGE = 0xD1B54A32D192ED03
DOMAIN_POOL_CHILD = 0x8CB92BA72F3D8DD7
DOMAIN_POOL_LENGTH = 0xEB44ACCAB455D165
DOMAIN_POOL_REPLICA = 0xA0761D6478BD642F
DOMAIN_SCAN_ENERGY = 0x2545F4914F6CDD1D

# Standard normal truncated to [-1, 1], drawn by inverting its CDF on
# [Phi(-1), Phi(1)], so no mass sits at +-1: Phi(-1) and Phi(1) through
# math.erfc, equal bit for bit to scipy.special.ndtr(-1.0) and ndtr(1.0)
# (a test pins both), so importing wtree does not load scipy.special.
_TN_LO = 0.5 * math.erfc(1 / math.sqrt(2))
_TN_HI = 0.5 * math.erfc(-1 / math.sqrt(2))
_TN_Z = _TN_HI - _TN_LO

#: names of the supported omega distributions
DISTS = ("uniform", "two_point", "truncated_normal")

#: Var omega of each distribution (all have mean 0): 1/3 on [-1, 1], 1
#: for +-1, and 1 - 2*phi(1)/(Phi(1) - Phi(-1)) for the truncated normal
OMEGA_VARIANCE = {
    "uniform": 1.0 / 3.0,
    "two_point": 1.0,
    "truncated_normal": 1.0 - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi) / _TN_Z,
}


def _is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(name: str, value, lo: int) -> None:
    if not _is_int(value) or value < lo:
        raise ValidationError(f"{name} must be an integer >= {lo}, got {value!r}")


def _check_word(name: str, value) -> None:
    """Check a 64-bit hash word (a seed or a replica): an integer in [0, 2**64)."""
    if not _is_int(value) or not 0 <= value < 2**64:
        raise ValidationError(f"{name} must be an integer in [0, 2**64), got {value!r}")


def _chain(h: int, words) -> int:
    """The scalar hash chain continued from state ``h`` through ``words``, python ints in [0, 2**64).

    Each step is the splitmix64 finalizer of ``h ^ w`` on python ints,
    inline: a one-replica tree solve runs one chain per generation.
    """
    for w in words:
        x = h ^ w
        x = (x ^ x >> 30) * _MIX1 & _MASK64
        x = (x ^ x >> 27) * _MIX2 & _MASK64
        h = x ^ x >> 31
    return h


# _mix_np's shifts and multipliers as 0-d uint64 arrays, made once: a
# ufunc takes a 0-d array faster than a numpy scalar, and multiplies a
# few thousand words by it faster too
_S30, _S27, _S31 = (np.array(s, dtype=np.uint64) for s in (30, 27, 31))
_M1, _M2 = np.array(_MIX1, dtype=np.uint64), np.array(_MIX2, dtype=np.uint64)


def _mix_np(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place: callers pass a fresh XOR result;
    # the three shifts share one scratch array
    tmp = np.right_shift(x, _S30)
    x ^= tmp
    x *= _M1
    x ^= np.right_shift(x, _S27, out=tmp)
    x *= _M2
    x ^= np.right_shift(x, _S31, out=tmp)
    return x


#: Below this many states, :func:`_expand_digits` XORs the digits in one
#: broadcast call; above it, K strided column writes are faster.  On a
#: 2-vCPU VM (numpy 2.4, K=2) the broadcast took 5.4 us against 6.9 us
#: for one state and 11.9 us against 10.7 us for 512.
_BROADCAST_STATES = 256


def _expand_digits(h: np.ndarray, K: int) -> np.ndarray:
    """The states ``mix(h ^ d)`` for d = 0..K-1, on a new last axis of length K.

    This is the last step of :func:`hash_words` with the digits as a
    trailing word.  Up to :data:`_BROADCAST_STATES` states it is one XOR
    broadcast over an inner axis of length K; beyond that, K strided
    column writes, whose cost does not grow with K calls of the inner
    loop per state.  Either way one mix follows.
    """
    if h.size <= _BROADCAST_STATES:
        return _mix_np(np.bitwise_xor(h[..., None], np.arange(K, dtype=np.uint64)))
    out = np.empty(h.shape + (K,), dtype=np.uint64)
    for d in range(K):
        np.bitwise_xor(h, np.uint64(d), out=out[..., d])
    return _mix_np(out)


def hash_words(seed: "int | np.ndarray", *words) -> "int | np.ndarray":
    """Chained counter hash of 64-bit words.

    Scalar ints chain in pure python; the first ``numpy`` array switches
    the chain to vectorized arithmetic, broadcasting across the remaining
    words.  The scalar and array paths produce bit-identical streams.
    A last word ``np.arange(K)`` broadcast over a new inner axis gives
    the same bits as :func:`_expand_digits` of the chain before it, which
    is the faster way to hash K child slots or digits.

    Parameters
    ----------
    seed : int or np.ndarray of uint64
        Master seed, any 64-bit integer; an array of them starts the
        vectorized chain and broadcasts like the words.
    *words : int or np.ndarray of uint64
        Stream coordinates (domain tag, replica, address digits, ...).

    Returns
    -------
    int or np.ndarray
        Uniformly mixed 64-bit state, one value per broadcast element.
    """
    if isinstance(seed, np.ndarray):
        # mix(_GOLD ^ seed) is the chain's first state, so the seeds enter as a word
        h, words = _GOLD, (seed, *words)
    else:
        h = _chain(_GOLD, [int(seed) & _MASK64])
    i = 0
    n = len(words)
    while i < n and not isinstance(words[i], np.ndarray):
        i += 1
    h = _chain(h, [int(w) & _MASK64 for w in words[:i]])
    if i == n:
        return h
    a = _mix_np(np.uint64(h) ^ words[i].astype(np.uint64, copy=False))
    for w in words[i + 1 :]:
        if isinstance(w, np.ndarray):
            a = _mix_np(a ^ w.astype(np.uint64, copy=False))
        else:
            a = _mix_np(a ^ np.uint64(int(w) & _MASK64))
    return a


def uniform01(h):
    """Map mixed 64-bit state to a float64 uniform on [0, 1)."""
    if isinstance(h, np.ndarray):
        u = (h >> np.uint64(11)).astype(np.float64)
        u *= 2.0**-53
        return u
    return (h >> 11) * 2.0**-53


def _omega_in_place(dist: str, u: np.ndarray) -> np.ndarray:
    """:func:`omega_from_uniform` of a float64 array, overwriting and returning it."""
    if dist == "uniform":
        u *= 2.0
        u -= 1.0
    elif dist == "two_point":
        low = u < 0.5
        u.fill(1.0)
        np.copyto(u, -1.0, where=low)
    elif dist == "truncated_normal":
        from scipy.special import ndtri  # loaded on first use: it dominates import time

        u *= _TN_Z
        u += _TN_LO
        ndtri(u, out=u)
    else:
        raise ValidationError(f"unknown omega distribution: {dist!r}")
    return u


def omega_from_uniform(dist: str, u):
    """Omega values of the named distribution for uniform deviates: an array, or one float."""
    if isinstance(u, np.ndarray):
        return _omega_in_place(dist, np.array(u, dtype=np.float64))
    return float(_omega_in_place(dist, np.array([u], dtype=np.float64))[0])


@dataclass(frozen=True)
class TreeSpec:
    """Geometry and boundary data of a truncated rooted tree.

    Parameters
    ----------
    K : int
        Branching number, at least 1.  The root vertex carries a single
        edge; every deeper vertex joins K child edges to its parent edge.
    L : float
        Base edge length (the common length when disorder is off).
    depth : int
        Truncation generation N; edges exist at generations 0..N.
    alpha : float
        Root boundary angle in [0, pi).  ``pi/2`` is the Neumann-type
        default; ``0`` is the Dirichlet condition.

    Interior vertices carry the Kirchhoff condition (continuity plus
    vanishing net flux).
    """

    K: int
    L: float
    depth: int
    alpha: float = math.pi / 2

    def __post_init__(self):
        _check_count("K", self.K, 1)
        if not 0.0 < self.L < math.inf:
            raise ValidationError(f"L must be positive and finite, got {self.L!r}")
        _check_count("depth", self.depth, 0)
        if not 0.0 <= self.alpha < math.pi:
            raise ValidationError(f"alpha must lie in [0, pi), got {self.alpha!r}")
        # python ints, so that K**n and edge_count() cannot wrap
        object.__setattr__(self, "K", int(self.K))
        object.__setattr__(self, "depth", int(self.depth))

    def edge_count(self) -> int:
        """Number of edges in the truncated tree."""
        return _edge_count(self.K, self.depth)


def _edge_count(K: int, depth: int) -> int:
    """Edges of generations 0..depth of a tree of branching number K."""
    if K == 1:
        return depth + 1
    return (K ** (depth + 1) - 1) // (K - 1)


@dataclass(frozen=True)
class DisorderModel:
    """Bounded iid edge-length disorder L_e = L * exp(lam * omega_e).

    Parameters
    ----------
    lam : float
        Disorder strength in [0, 1]; ``0`` switches disorder off exactly.
    dist : str
        One of ``uniform`` (on [-1, 1]), ``two_point`` (symmetric +-1),
        ``truncated_normal`` (standard normal truncated to [-1, 1], by
        inverting its CDF, so with no mass at +-1).
    master_seed : int
        64-bit seed addressing the whole iid family.
    """

    lam: float = 0.0
    dist: str = "uniform"
    master_seed: int = 1

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"disorder strength must lie in [0, 1], got {self.lam!r}")
        if self.dist not in DISTS:
            raise ValidationError(f"disorder dist must be one of {sorted(DISTS)}, got {self.dist!r}")
        _check_word("master_seed", self.master_seed)
        object.__setattr__(self, "master_seed", int(self.master_seed))


def _lengths(omega, lam: float, L: float, out=None):
    """Edge lengths L * exp(lam * omega), written to ``out``, by default in place in ``omega``."""
    out = np.multiply(omega, lam, out=omega if out is None else out)
    np.exp(out, out=out)
    out *= L
    return out


def _check_model(dm) -> None:
    """Reject anything but one ``DisorderModel`` (the one-model entry points)."""
    if not isinstance(dm, DisorderModel):
        raise ValidationError(f"expected a DisorderModel, got {dm!r}")


def _as_models(dm) -> tuple:
    """The disorder models of stacked rows: ``(dm,)`` for one model, else the checked sequence."""
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


@dataclass(frozen=True)
class EdgeAddress:
    """Path of child indices from the root edge; the root edge has an empty path."""

    path: tuple = ()

    def __post_init__(self):
        try:
            path = tuple(self.path)
        except TypeError:
            raise ValidationError(f"edge path must be a sequence of integers, got {self.path!r}") from None
        # ints and numpy integers only: int() would truncate 1.9 and accept '1' and True
        if not all(_is_int(d) for d in path):
            raise ValidationError(f"edge path digits must be integers, got {path!r}")
        object.__setattr__(self, "path", tuple(int(d) for d in path))

    @property
    def generation(self) -> int:
        return len(self.path)

    def child(self, d: int) -> "EdgeAddress":
        return EdgeAddress(self.path + (d,))


ROOT_EDGE = EdgeAddress()


def _check_address(spec: TreeSpec, addr: EdgeAddress) -> None:
    if addr.generation > spec.depth:
        raise AddressRangeError(
            f"edge at generation {addr.generation} exceeds tree depth {spec.depth}"
        )
    for d in addr.path:
        if not 0 <= d < spec.K:
            raise AddressRangeError(f"child index {d} out of range for K={spec.K}")


def resample_omega(dm: DisorderModel, addr: EdgeAddress, replica: int = 0) -> float:
    """Deterministic omega draw for one edge.

    The value is a pure function of ``(master_seed, addr, replica)`` and
    is distributed per ``dm.dist`` with ``|omega| <= 1``.

    Parameters
    ----------
    dm : DisorderModel
    addr : EdgeAddress
    replica : int
        Independent-copy index in [0, 2**64); distinct replicas give iid families.

    Returns
    -------
    float
        omega value in [-1, 1].
    """
    _check_word("replica", replica)
    h = hash_words(dm.master_seed, DOMAIN_EDGE, replica, addr.generation, *addr.path)
    return omega_from_uniform(dm.dist, uniform01(h))


def omega_for_generation(dm: DisorderModel, K: int, g, replicas, prefix=()) -> np.ndarray:
    """Vectorized omega draws for every edge of some generations of a subtree.

    The subtree hangs from the edge with path ``prefix``; its edges of
    generation ``g`` are laid out in lexicographic order of their local
    digits, index ``i = sum(path[len(prefix) + j] * K**(n-1-j))`` with
    ``n = g - len(prefix)``.  A range of generations is laid out
    generation-major, so its columns are the one-generation draws laid
    end to end.  The result is bit-identical to calling
    :func:`resample_omega` edge by edge.

    The states ``(seed, DOMAIN_EDGE, replica, g, *prefix)`` of every
    generation are hashed as one chain, the generation being an array
    word; a single row hashes its G chains in python ints instead, G *
    (1 + len(prefix)) scalar mixes after its first three words.  The
    states are then expanded level by level, each child mixing its
    parent's state with one digit: one K-digit expansion
    (:func:`_expand_digits`) per level over all generations still
    growing.  A generation's words are stored, in its slice of the
    result, at its own level, and all of them are turned into omegas in
    one pass at the end.  A call spanning ``G`` generations down to local
    level ``n`` thus makes ``2 + len(prefix) + n`` array mixes (``n``
    for one row) and O(n) numpy calls, and costs about K/(K-1) mixed
    words per edge.  A level is one digit XOR and the eight ufuncs of
    :func:`_mix_np`, plus one copy of the finished generation's words.

    Parameters
    ----------
    dm : DisorderModel
    K : int
        Branching number.
    g : int or range
        Generation (0 is the root edge), at least ``len(prefix)``, or a
        nonempty range of consecutive such generations (step 1).
    replicas : int or np.ndarray
        Scalar replica, or an integer column of shape ``(S, 1)``, one
        replica per row.
    prefix : tuple of int
        Address path of the subtree's top edge; empty for the whole tree.

    Returns
    -------
    np.ndarray
        omega values, shape ``(E,)`` for a scalar replica and ``(S, E)``
        for a column, with ``E = sum(K**(h - len(prefix)) for h in gens)``
        (``K**n`` for one generation).
    """
    if isinstance(g, range):
        if len(g) == 0 or g.step != 1:
            raise ValidationError(f"generations must be a nonempty range of step 1, got {g!r}")
        gens = g
    else:
        gens = range(g, g + 1)
    if gens.start < len(prefix):
        raise ValidationError(
            f"generation {gens.start} lies above the subtree prefix {tuple(prefix)}"
        )
    if isinstance(replicas, np.ndarray):
        if replicas.ndim != 2 or replicas.shape[1] != 1 or replicas.dtype.kind not in "iu":
            raise ValidationError(
                f"replicas must be an int or an (S, 1) int array, got {replicas.dtype} {replicas.shape}"
            )
        reps = replicas.astype(np.uint64, copy=False)
    else:
        reps = np.full((1, 1), int(replicas) & _MASK64, dtype=np.uint64)
    S = reps.shape[0]
    if S == 1:
        # one row: numpy calls on its few states would cost more than the mixes
        top = hash_words(dm.master_seed, DOMAIN_EDGE, int(reps[0, 0]))
        tail = [int(d) & _MASK64 for d in prefix]
        h = np.array([[_chain(top, (g, *tail)) for g in gens]], dtype=np.uint64)
    else:
        gen_words = np.arange(gens.start, gens.stop, dtype=np.uint64)
        h = hash_words(dm.master_seed, DOMAIN_EDGE, reps, gen_words, *prefix)
    first, last = gens.start - len(prefix), gens.stop - 1 - len(prefix)
    out = np.empty((S, _edge_count(K, last) - _edge_count(K, first - 1)), dtype=np.float64)
    words = out.view(np.uint64)
    # h: (rows, the states of every generation still growing, generation
    # by generation); the first of them that reaches its own level moves
    # to its words
    lo = 0
    for level in range(last + 1):
        if level:
            h = _expand_digits(h, K).reshape(S, -1)
        if level >= first:
            n = K**level
            words[:, lo : lo + n] = h[:, :n]
            lo += n
            h = h[:, n:]
    # the words become uniforms in place, then omegas
    np.multiply(np.right_shift(words, np.uint64(11), out=words), 2.0**-53, out=out)
    _omega_in_place(dm.dist, out)
    return out if isinstance(replicas, np.ndarray) else out[0]


def edge_length(spec: TreeSpec, dm: DisorderModel, addr: EdgeAddress, replica: int = 0) -> float:
    """Random length L * exp(lam * omega(addr, replica)) of one edge, with the tree kernel's bits.

    Repeated calls with identical inputs return bit-identical values;
    ``lam = 0`` returns ``L`` exactly.

    Parameters
    ----------
    spec : TreeSpec
    dm : DisorderModel
    addr : EdgeAddress
        Must lie within ``spec.depth``.
    replica : int
        Independent-copy index in [0, 2**64) (keyword extension of the address).

    Returns
    -------
    float
        Edge length in ``[L * exp(-lam), L * exp(lam)]``.
    """
    _check_address(spec, addr)
    omega = resample_omega(dm, addr, replica)
    return float(_lengths(np.array([omega]), dm.lam, spec.L)[0])
