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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import AddressRangeError, ValidationError

__all__ = [
    "VertexBC",
    "TreeSpec",
    "DisorderModel",
    "EdgeAddress",
    "ROOT_EDGE",
    "DIST_MOMENTS",
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
DOMAIN_SCAN_ENERGY = 0x2545F4914F6CDD1D

# Truncated standard normal clipped to [-1, 1].
_TN_LO = float(ndtr(-1.0))
_TN_HI = float(ndtr(1.0))
_TN_Z = _TN_HI - _TN_LO
_TN_VAR = 1.0 - 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi) / _TN_Z

#: mean and variance of each supported omega distribution
DIST_MOMENTS = {
    "uniform": (0.0, 1.0 / 3.0),
    "two_point": (0.0, 1.0),
    "truncated_normal": (0.0, _TN_VAR),
}


def _mix(x: int) -> int:
    # splitmix64 finalizer on python ints
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def _mix_np(x: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place: callers pass a fresh XOR result
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x


def hash_words(seed: int, *words) -> "int | np.ndarray":
    """Chained counter hash of 64-bit words.

    Scalar ints chain in pure python; the first ``numpy`` array switches
    the chain to vectorized arithmetic, broadcasting across the remaining
    words.  The scalar and array paths produce bit-identical streams.

    Parameters
    ----------
    seed : int
        Master seed, any 64-bit integer.
    *words : int or np.ndarray of uint64
        Stream coordinates (domain tag, replica, address digits, ...).

    Returns
    -------
    int or np.ndarray
        Uniformly mixed 64-bit state, one value per broadcast element.
    """
    h = _mix((int(seed) ^ _GOLD) & _MASK64)
    i = 0
    n = len(words)
    while i < n and not isinstance(words[i], np.ndarray):
        h = _mix(h ^ (int(words[i]) & _MASK64))
        i += 1
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
        return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return (h >> 11) * 2.0**-53


def omega_from_uniform(dist: str, u):
    """Transform uniform deviates into omega values of the named distribution."""
    if dist == "uniform":
        return 2.0 * u - 1.0
    if dist == "two_point":
        if isinstance(u, np.ndarray):
            return np.where(u < 0.5, -1.0, 1.0)
        return -1.0 if u < 0.5 else 1.0
    if dist == "truncated_normal":
        p = _TN_LO + u * _TN_Z
        out = ndtri(p)
        return out if isinstance(u, np.ndarray) else float(out)
    raise ValidationError(f"unknown omega distribution: {dist!r}")


@dataclass(frozen=True)
class VertexBC:
    """Vertex boundary-condition family.

    ``kirchhoff`` is continuity plus vanishing net flux; ``symmetric``
    generalizes it with the two mixing angles.  Kirchhoff coincides with
    ``symmetric`` at ``beta_v = 0``, ``alpha_v = pi/2``.
    """

    kind: str = "kirchhoff"
    alpha_v: float = math.pi / 2
    beta_v: float = 0.0

    def __post_init__(self):
        if self.kind not in ("kirchhoff", "symmetric"):
            raise ValidationError(f"vertex_bc.type must be kirchhoff or symmetric, got {self.kind!r}")
        if not 0.0 <= self.alpha_v <= math.pi:
            raise ValidationError(f"vertex_bc.alpha_v must lie in [0, pi], got {self.alpha_v}")
        if not 0.0 <= self.beta_v <= math.pi:
            raise ValidationError(f"vertex_bc.beta_v must lie in [0, pi], got {self.beta_v}")
        if self.kind == "kirchhoff" and self.beta_v != 0.0:
            raise ValidationError("kirchhoff boundary conditions require beta_v = 0")

    @property
    def is_kirchhoff(self) -> bool:
        return self.beta_v == 0.0


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
    vertex_bc : VertexBC
        Boundary-condition family applied at interior vertices.
    """

    K: int
    L: float
    depth: int
    alpha: float = math.pi / 2
    vertex_bc: VertexBC = field(default_factory=VertexBC)

    def __post_init__(self):
        if not isinstance(self.K, int) or self.K < 1:
            raise ValidationError(f"K must be an integer >= 1, got {self.K!r}")
        if not self.L > 0.0:
            raise ValidationError(f"L must be positive, got {self.L!r}")
        if not isinstance(self.depth, int) or self.depth < 0:
            raise ValidationError(f"depth must be an integer >= 0, got {self.depth!r}")
        if not 0.0 <= self.alpha < math.pi:
            raise ValidationError(f"alpha must lie in [0, pi), got {self.alpha!r}")

    def edge_count(self) -> int:
        """Number of edges in the truncated tree."""
        if self.K == 1:
            return self.depth + 1
        return (self.K ** (self.depth + 1) - 1) // (self.K - 1)


@dataclass(frozen=True)
class DisorderModel:
    """Bounded iid edge-length disorder L_e = L * exp(lam * omega_e).

    Parameters
    ----------
    lam : float
        Disorder strength in [0, 1]; ``0`` switches disorder off exactly.
    dist : str
        One of ``uniform`` (on [-1, 1]), ``two_point`` (symmetric +-1),
        ``truncated_normal`` (standard normal clipped to [-1, 1]).
    master_seed : int
        64-bit seed addressing the whole iid family.
    """

    lam: float = 0.0
    dist: str = "uniform"
    master_seed: int = 1

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"disorder strength must lie in [0, 1], got {self.lam!r}")
        if self.dist not in DIST_MOMENTS:
            raise ValidationError(
                f"disorder dist must be one of {sorted(DIST_MOMENTS)}, got {self.dist!r}"
            )
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise ValidationError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class EdgeAddress:
    """Path of child indices from the root edge; the root edge has an empty path."""

    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "path", tuple(int(d) for d in self.path))

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
        Independent-copy index; distinct replicas give iid families.

    Returns
    -------
    float
        omega value in [-1, 1].
    """
    h = hash_words(dm.master_seed, DOMAIN_EDGE, replica, addr.generation, *addr.path)
    return float(omega_from_uniform(dm.dist, uniform01(h)))


def omega_for_generation(dm: DisorderModel, K: int, g: int, replicas, prefix=()) -> np.ndarray:
    """Vectorized omega draws for every edge of one generation of a subtree.

    The subtree hangs from the edge with path ``prefix``; its edges of
    generation ``g`` are laid out in lexicographic order of their local
    digits, index ``i = sum(path[len(prefix) + j] * K**(n-1-j))`` with
    ``n = g - len(prefix)``.  The result is bit-identical to calling
    :func:`resample_omega` edge by edge.  The hash is expanded level by
    level from the shared ``(seed, DOMAIN_EDGE, replica, g, *prefix)``
    state, each child mixing its parent's state with one digit, so a
    block costs about K/(K-1) mixes per edge.

    Parameters
    ----------
    dm : DisorderModel
    K : int
        Branching number.
    g : int
        Generation (0 is the root edge), at least ``len(prefix)``.
    replicas : int or np.ndarray
        Scalar replica, or an integer column of shape ``(S, 1)``, one
        replica per row.
    prefix : tuple of int
        Address path of the subtree's top edge; empty for the whole tree.

    Returns
    -------
    np.ndarray
        omega values, shape ``(K**n,)`` for a scalar replica and
        ``(S, K**n)`` for a column.
    """
    n = g - len(prefix)
    if n < 0:
        raise ValidationError(f"generation {g} lies above the subtree prefix {tuple(prefix)}")
    if isinstance(replicas, np.ndarray):
        if replicas.ndim != 2 or replicas.shape[1] != 1 or replicas.dtype.kind not in "iu":
            raise ValidationError(
                f"replicas must be an int or an (S, 1) int array, got {replicas.dtype} {replicas.shape}"
            )
        reps = replicas.astype(np.uint64, copy=False)
    else:
        reps = np.full((1, 1), int(replicas) & _MASK64, dtype=np.uint64)
    h = hash_words(dm.master_seed, DOMAIN_EDGE, reps, g, *prefix)
    digits = np.arange(K, dtype=np.uint64)
    for _ in range(n):
        h = _mix_np((h[:, :, None] ^ digits).reshape(h.shape[0], -1))
    out = np.asarray(omega_from_uniform(dm.dist, uniform01(h)), dtype=np.float64)
    return out if isinstance(replicas, np.ndarray) else out[0]


def edge_length(spec: TreeSpec, dm: DisorderModel, addr: EdgeAddress, replica: int = 0) -> float:
    """Random length of one edge, L * exp(lam * omega(addr, replica)).

    Repeated calls with identical inputs return bit-identical values;
    ``lam = 0`` returns ``L`` exactly.

    Parameters
    ----------
    spec : TreeSpec
    dm : DisorderModel
    addr : EdgeAddress
        Must lie within ``spec.depth``.
    replica : int
        Independent-copy index (keyword extension of the address).

    Returns
    -------
    float
        Edge length in ``[L * exp(-lam), L * exp(lam)]``.
    """
    _check_address(spec, addr)
    omega = resample_omega(dm, addr, replica)
    return spec.L * math.exp(dm.lam * omega)
