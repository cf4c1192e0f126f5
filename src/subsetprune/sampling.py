"""Seeded sampling of every random object used here: normal tensors,
normally-scaled normal (NSN) ensembles, uniforms.

Determinism contract
--------------------
All draws are pure functions of a :class:`SeedSpec`. The byte stream comes
from the counter-based Philox generator keyed by ``(master_seed, stream_id)``;
uniforms are 53-bit integers mapped into the open interval (0, 1); an n-value
normal draw takes 2 * ceil(n/2) uniforms at once and pairs uniform p with
uniform ceil(n/2) + p in the Box-Muller transform (see :func:`_normals`).
Hence ``(seed, stream, sequence of draw lengths)`` fully determines every
value, independent of how work is scheduled; a value depends on the length of
the call that drew it, so a longer draw does not extend a shorter one.
Distinct stream ids give independent streams; a single stream must be
consumed sequentially.

Substreams for parallel fan-out are derived with :meth:`SeedSpec.substream`,
a splitmix64-style mix of ``(stream_id, index)``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .tensors import FeatureMap, Tensor4

__all__ = [
    "SeedSpec",
    "NsnEnsemble",
    "standard_normals",
    "sample_uniform",
    "sample_uniform_map",
    "sample_normal_tensor",
    "sample_nsn",
]

_MASK64 = (1 << 64) - 1
_BOX_MULLER_PAIRS = 1 << 12  # pairs per Box-Muller chunk; its scratch fits in L2


def _mix64(a: int, b: int) -> int:
    # splitmix64 finaliser over a*phi + b; enough avalanche for substream ids
    x = (a * 0x9E3779B97F4A7C15 + b) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one deterministic random stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "stream_id", int(self.stream_id) & _MASK64)

    def substream(self, index: int) -> "SeedSpec":
        """Pure derived stream; distinct indices give independent streams."""
        return SeedSpec(self.master_seed, _mix64(self.stream_id, int(index) & _MASK64))


def _generator(seed: SeedSpec) -> np.random.Generator:
    key = np.array([seed.master_seed, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Per thread: one Philox, its Generator and the state a fresh one starts in.
# Every draw first resets it to that state under its own key, so no call sees
# another's; keeping it saves building a Philox, seeded from OS entropy only
# to be rekeyed, per call.
_REWOUND = threading.local()


def _substream_permutation_heads(seeds, indices, n: int, k: int) -> np.ndarray:
    """Row ``s * len(indices) + i`` holds the first k entries of
    ``_generator(seeds[s].substream(indices[i])).permutation(n)``; one
    :class:`SeedSpec` counts as a list of one.

    The thread's one Philox is rewound to each pair's key, ``(master_seed,
    _mix64(stream_id, index))``, with a zero counter and an empty buffer, the
    state a fresh generator starts in, so the bytes are the same without
    building a Philox, a Generator or a :class:`SeedSpec` per pair or per
    call. The state is handed over as plain ints, which the setter reads
    faster than arrays.
    """
    if not hasattr(_REWOUND, "rng"):
        _REWOUND.rng = np.random.Generator(np.random.Philox(key=np.zeros(2, dtype=np.uint64)))
        fresh = _REWOUND.rng.bit_generator.state
        fresh["state"] = {name: part.tolist() for name, part in fresh["state"].items()}
        fresh["buffer"] = fresh["buffer"].tolist()
        _REWOUND.fresh = fresh
    rng, fresh = _REWOUND.rng, _REWOUND.fresh
    bitgen, key = rng.bit_generator, fresh["state"]["key"]
    seeds = [seeds] if isinstance(seeds, SeedSpec) else seeds
    indices = [int(index) & _MASK64 for index in indices]
    heads = np.empty((len(seeds) * len(indices), k), dtype=np.intp)
    row = 0
    for seed in seeds:
        key[0] = seed.master_seed
        for index in indices:
            key[1] = _mix64(seed.stream_id, index)
            bitgen.state = fresh
            heads[row] = rng.permutation(n)[:k]
            row += 1
    return heads


def _uniform_open01(rng: np.random.Generator, n: int) -> np.ndarray:
    bits = rng.integers(0, 1 << 53, size=int(n), dtype=np.uint64)
    return (bits.astype(np.float64) + 0.5) * (2.0**-53)


def _normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """Box-Muller on ``m = ceil(n/2)`` pairs from one draw of ``2m`` 53-bit words.

    With ``u_i`` the open-interval uniform of word ``i``, pair ``p`` takes
    ``u1 = u_p`` and ``u2 = u_{m+p}`` and yields values ``2p`` (the cosine) and
    ``2p + 1`` (the sine), so a value depends on the call's length ``n``. The
    pairs are transformed in chunks of ``_BOX_MULLER_PAIRS`` through reused
    scratch buffers; every element sees the same operations as a whole-array
    transform, so the chunking changes no byte.
    """
    pairs = (n + 1) // 2
    words = rng.integers(0, 1 << 53, size=2 * pairs, dtype=np.uint64)
    out = np.empty(2 * pairs)
    cosines, sines = out[0::2], out[1::2]
    scratch = np.empty((3, min(pairs, _BOX_MULLER_PAIRS)))
    for lo in range(0, pairs, _BOX_MULLER_PAIRS):
        hi = min(lo + _BOX_MULLER_PAIRS, pairs)
        radius, theta, trig = scratch[:, : hi - lo]
        for u, first in ((radius, lo), (theta, pairs + lo)):  # as in _uniform_open01
            np.add(words[first : first + hi - lo], 0.5, out=u)
            np.multiply(u, 2.0**-53, out=u)
        np.log(radius, out=radius)
        np.multiply(-2.0, radius, out=radius)
        np.sqrt(radius, out=radius)
        np.multiply(2.0 * np.pi, theta, out=theta)
        np.multiply(radius, np.cos(theta, out=trig), out=cosines[lo:hi])
        np.multiply(radius, np.sin(theta, out=trig), out=sines[lo:hi])
    return out[:n]


def standard_normals(n: int, seed: SeedSpec) -> np.ndarray:
    """``n`` i.i.d. N(0, 1) draws from the given stream."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    return _normals(_generator(seed), n)


def sample_uniform(n: int, seed: SeedSpec, low: float = 0.0, high: float = 1.0) -> np.ndarray:
    """``n`` i.i.d. uniforms on the open interval (low, high)."""
    if n < 0:
        raise ParameterError("n must be nonnegative")
    if not high > low:
        raise ParameterError("need high > low")
    u = _uniform_open01(_generator(seed), n)
    return low + (high - low) * u


def sample_uniform_map(
    height: int, width: int, channels: int, seed: SeedSpec, magnitude: float = 1.0
) -> FeatureMap:
    """Uniform probe input on ``(-magnitude, magnitude)^(height x width x channels)``."""
    if min(height, width, channels) < 1:
        raise ShapeError("all dimensions must be positive")
    vals = sample_uniform(height * width * channels, seed, -magnitude, magnitude)
    return FeatureMap(vals.reshape(height, width, channels))


def sample_normal_tensor(shape: tuple[int, int, int, int], seed: SeedSpec) -> Tensor4:
    """Kernel tensor with i.i.d. N(0, 1) entries, filled in row-major order."""
    if len(shape) != 4:
        raise ShapeError(f"expected 4 dimensions, got {len(shape)}")
    if min(shape) < 1:
        raise ShapeError(f"all dimensions must be positive, got {shape}")
    total = int(np.prod(shape))
    return Tensor4(standard_normals(total, seed).reshape(shape))


@dataclass(frozen=True, eq=False)
class NsnEnsemble:
    """``n`` sampled d-dimensional NSN vectors with their generating parts retained.

    Row ``i`` of :attr:`vectors` is ``scalars[i] * directions[i, :]`` exactly as
    stored, where the scalar and the d direction entries are i.i.d. standard
    normals. Keeping the parts lets diagnostics condition on the scalars.
    """

    scalars: np.ndarray  # (n,)
    directions: np.ndarray  # (n, d)
    vectors: np.ndarray  # (n, d)

    def __post_init__(self) -> None:
        scalars = np.ascontiguousarray(np.asarray(self.scalars, dtype=np.float64))
        directions = np.ascontiguousarray(np.asarray(self.directions, dtype=np.float64))
        vectors = np.ascontiguousarray(np.asarray(self.vectors, dtype=np.float64))
        if scalars.ndim != 1 or directions.ndim != 2 or vectors.ndim != 2:
            raise ShapeError("scalars must be 1-D; directions and vectors 2-D")
        if directions.shape != vectors.shape or directions.shape[0] != scalars.shape[0]:
            raise ShapeError("inconsistent ensemble shapes")
        if not np.array_equal(vectors, scalars[:, None] * directions):
            raise ValueError("vectors must equal scalars[:, None] * directions exactly")
        object.__setattr__(self, "scalars", scalars)
        object.__setattr__(self, "directions", directions)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def from_parts(cls, scalars, directions) -> "NsnEnsemble":
        scalars = np.asarray(scalars, dtype=np.float64)
        directions = np.asarray(directions, dtype=np.float64)
        if directions.ndim == 1:
            directions = directions[:, None]
        return cls(scalars, directions, scalars[:, None] * directions)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def take(self, count: int) -> "NsnEnsemble":
        """Prefix sub-ensemble; used for paired sweeps over growing n."""
        if not 0 <= count <= self.n:
            raise ParameterError(f"count must be in [0, {self.n}]")
        return NsnEnsemble(
            self.scalars[:count], self.directions[:count], self.vectors[:count]
        )


def sample_nsn(n: int, d: int, seed: SeedSpec) -> NsnEnsemble:
    """``n`` i.i.d. d-dimensional NSN vectors: fresh scalar and directions per vector."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be >= 1")
    rng = _generator(seed)
    scalars = _normals(rng, n)
    directions = _normals(rng, n * d).reshape(n, d)
    return NsnEnsemble.from_parts(scalars, directions)
