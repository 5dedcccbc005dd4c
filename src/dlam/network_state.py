"""Optimization variables of the layered model and their feasible initialization.

The trainer keeps four blocks per layer: the weight matrix W, the intercept
b, the pre-activation batch z, and (for hidden layers) the activation batch
a. A state is *feasible* for a tolerance eps when every hidden activation
lies inside the slab [h(z) - eps, h(z) + eps] around its own pre-activation
image; that invariant holds after initialization and after every epoch.

Layer indices are 0-based in code: weight layers run 0..L-1, hidden
activations 0..L-2, and ``a_prev(0)`` is the input batch x.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tensor_core import ShapeError

# Guard against inverting a sigmoid/tanh target that rounding pushed onto the
# boundary of the activation's open range.
SATURATION_GUARD = 1e-12

_CHECKPOINT_MAGIC = 0x4D414C44  # ascii "DLAM", little-endian
_CHECKPOINT_VERSION = 1


class ActivationKind(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"


class RiskKind(Enum):
    CROSS_ENTROPY = "cross_entropy"
    SQUARED = "squared"   # test-only risk with a closed-form composite minimizer
    ZERO = "zero"         # test-only: reduces the output solve to a pure quadratic


class RegKind(Enum):
    NONE = "none"
    L1 = "l1"
    L2 = "l2"


def activation_apply(kind: ActivationKind, z: np.ndarray) -> np.ndarray:
    """Elementwise h(z) for the given activation."""
    if kind is ActivationKind.RELU:
        return np.maximum(0.0, z)
    if kind is ActivationKind.SIGMOID:
        # split by sign to avoid overflow in exp
        out = np.empty_like(z, dtype=np.float64)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out
    if kind is ActivationKind.TANH:
        return np.tanh(z)
    raise ValueError(f"unknown activation {kind!r}")


def slab_z_bounds(kind: ActivationKind, a: np.ndarray, eps: float):
    """Elementwise bounds [B1, B2] of {z : a - eps <= h(z) <= a + eps}.

    Monotonicity of h makes each set an interval; a side becomes infinite
    when the corresponding target falls outside the activation's range.
    Returns (B1, B2, empty) where ``empty`` marks entries whose target band
    misses the range entirely; B1/B2 are undefined (0) at those entries and
    the caller decides how to recover.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    a = np.asarray(a, dtype=np.float64)
    t_lo = a - eps
    t_hi = a + eps
    d = SATURATION_GUARD
    if kind is ActivationKind.RELU:
        empty = t_hi < 0.0
        hi = np.where(empty, 0.0, t_hi)
        lo = np.where(t_lo > 0.0, t_lo, -np.inf)
        lo = np.where(empty, 0.0, lo)
        return lo, hi, empty
    if kind is ActivationKind.SIGMOID:
        empty = (t_hi <= 0.0) | (t_lo >= 1.0)
        cl = np.clip(t_lo, d, 1.0 - d)
        ch = np.clip(t_hi, d, 1.0 - d)
        lo = np.where(t_lo <= d, -np.inf, np.log(cl) - np.log1p(-cl))
        hi = np.where(t_hi >= 1.0 - d, np.inf, np.log(ch) - np.log1p(-ch))
    elif kind is ActivationKind.TANH:
        empty = (t_hi <= -1.0) | (t_lo >= 1.0)
        cl = np.clip(t_lo, -1.0 + d, 1.0 - d)
        ch = np.clip(t_hi, -1.0 + d, 1.0 - d)
        lo = np.where(t_lo <= -1.0 + d, -np.inf, np.arctanh(cl))
        hi = np.where(t_hi >= 1.0 - d, np.inf, np.arctanh(ch))
    else:
        raise ValueError(f"unknown activation {kind!r}")
    lo = np.where(empty, 0.0, lo)
    hi = np.where(empty, 0.0, hi)
    return lo, hi, empty


@dataclass(frozen=True)
class Architecture:
    """Layer sizes plus the activation, risk, and regularizer choices.

    ``layer_sizes`` runs from the feature count n_0 = d through the class
    count n_L; there must be at least two weight layers. ``activation`` may
    be a single kind (applied to every hidden layer) or one kind per hidden
    layer.
    """

    layer_sizes: tuple[int, ...]
    activation: tuple[ActivationKind, ...] = ActivationKind.RELU
    risk: RiskKind = RiskKind.CROSS_ENTROPY
    regularizer: RegKind = RegKind.NONE
    reg_weight: float = 0.0

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("need at least two weight layers (input, hidden+, output)")
        if any(n < 1 for n in sizes):
            raise ValueError("every layer size must be >= 1")
        act = self.activation
        if isinstance(act, ActivationKind):
            act = (act,) * (self.num_layers - 1)
        else:
            act = tuple(act)
        if len(act) != self.num_layers - 1:
            raise ValueError(
                f"need one activation per hidden layer ({self.num_layers - 1}), got {len(act)}"
            )
        object.__setattr__(self, "activation", act)
        if self.reg_weight < 0:
            raise ValueError("reg_weight must be >= 0")

    @property
    def num_layers(self) -> int:
        """Number of weight layers L."""
        return len(self.layer_sizes) - 1

    @property
    def features(self) -> int:
        return self.layer_sizes[0]

    @property
    def classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class NetworkState:
    """All optimization blocks for one training problem.

    Blocks are replaced (never mutated in place) by the block updates, so a
    reference taken before an update still sees the old value afterwards.
    """

    arch: Architecture
    x: np.ndarray                       # input batch, d x N
    y: np.ndarray                       # one-hot labels, classes x N
    W: list[np.ndarray] = field(default_factory=list)
    b: list[np.ndarray] = field(default_factory=list)
    z: list[np.ndarray] = field(default_factory=list)
    a: list[np.ndarray] = field(default_factory=list)   # hidden activations only

    @property
    def num_layers(self) -> int:
        return self.arch.num_layers

    @property
    def n_samples(self) -> int:
        return self.x.shape[1]

    def a_prev(self, layer: int) -> np.ndarray:
        """Input batch feeding weight layer ``layer`` (x for layer 0)."""
        return self.x if layer == 0 else self.a[layer - 1]


def check_one_hot(y: np.ndarray) -> None:
    """Every column must contain a single 1 and zeros elsewhere."""
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=0) == 1.0)):
        raise ValueError("labels must be one-hot columns")


def he_init(arch: Architecture, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gaussian weights with std sqrt(2 / fan_in) and zero intercepts."""
    rng = np.random.default_rng(seed)
    W, b = [], []
    for l in range(arch.num_layers):
        n_out, n_in = arch.layer_sizes[l + 1], arch.layer_sizes[l]
        W.append(rng.normal(0.0, np.sqrt(2.0 / n_in), size=(n_out, n_in)))
        b.append(np.zeros((n_out, 1)))
    return W, b


def initialize(arch: Architecture, x: np.ndarray, y: np.ndarray, hp=None,
               seed: int | None = None) -> NetworkState:
    """Feasible starting state: forward pass from seeded weights.

    z = W a_prev + b is computed layer by layer and a = h(z), so every
    penalty term starts at zero and the slab invariant holds for any
    eps > 0. Deterministic for a fixed seed. Labels must be one-hot for the
    cross-entropy risk; this is the one place the trainer checks it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("x and y must be 2-D matrices with samples as columns")
    if x.shape[0] != arch.features:
        raise ShapeError(f"x has {x.shape[0]} rows, architecture expects {arch.features}")
    if y.shape[0] != arch.classes:
        raise ShapeError(f"y has {y.shape[0]} rows, architecture expects {arch.classes}")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"x has {x.shape[1]} columns but y has {y.shape[1]}")
    if arch.risk is RiskKind.CROSS_ENTROPY:
        check_one_hot(y)
    if seed is None:
        seed = getattr(hp, "seed", 0) if hp is not None else 0
    W, b = he_init(arch, seed)
    state = NetworkState(arch=arch, x=x, y=y, W=W, b=b)
    cur = x
    for l in range(arch.num_layers):
        z = W[l] @ cur + b[l]
        state.z.append(z)
        if l < arch.num_layers - 1:
            cur = activation_apply(arch.activation[l], z)
            state.a.append(cur)
    return state


def feasibility_residual(state: NetworkState, eps: float) -> float:
    """Largest slab violation max_l ||a_l - clip(a_l, h(z_l)-eps, h(z_l)+eps)||_inf.

    eps = 0 gives the largest distance of any activation from h(z).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    worst = 0.0
    for l in range(state.num_layers - 1):
        h = activation_apply(state.arch.activation[l], state.z[l])
        clipped = np.clip(state.a[l], h - eps, h + eps)
        worst = max(worst, float(np.max(np.abs(state.a[l] - clipped), initial=0.0)))
    return worst


def forward_logits(arch: Architecture, W: list[np.ndarray], b: list[np.ndarray],
                   x: np.ndarray) -> np.ndarray:
    """Plain feedforward pass; returns the output-layer pre-activations."""
    cur = x
    for l in range(arch.num_layers):
        cur = W[l] @ cur + b[l]
        if l < arch.num_layers - 1:
            cur = activation_apply(arch.activation[l], cur)
    return cur


def save_state(state: NetworkState, path: str) -> None:
    """Dump a state to a flat little-endian binary file.

    Layout: u32 magic 0x4D414C44, u32 version, u32 number of layer sizes,
    u32 batch size N, then the layer sizes as u32, then float64 row-major
    blocks in layer order W_1, b_1, z_1, a_1, ..., W_L, b_L, z_L (the output
    layer has no activation block). Used for resume and inspection only; the
    architecture choices and the data batch are not stored.
    """
    sizes = state.arch.layer_sizes
    with open(path, "wb") as f:
        f.write(struct.pack("<4I", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                            len(sizes), state.n_samples))
        f.write(struct.pack(f"<{len(sizes)}I", *sizes))
        for l in range(state.num_layers):
            for block in (state.W[l], state.b[l], state.z[l]):
                f.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
            if l < state.num_layers - 1:
                f.write(np.ascontiguousarray(state.a[l], dtype="<f8").tobytes())


def load_state(path: str, arch: Architecture, x: np.ndarray, y: np.ndarray) -> NetworkState:
    """Rebuild a state saved by :func:`save_state`; caller supplies arch and data."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise ValueError(f"checkpoint truncated: {len(raw)} bytes")
    magic, version, n_sizes, n = struct.unpack_from("<4I", raw, 0)
    if magic != _CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic 0x{magic:08X}")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    sizes = struct.unpack_from(f"<{n_sizes}I", raw, 16)
    if sizes != arch.layer_sizes:
        raise ShapeError(f"checkpoint sizes {sizes} do not match architecture {arch.layer_sizes}")
    if n != x.shape[1]:
        raise ShapeError(f"checkpoint batch size {n} does not match x ({x.shape[1]})")
    off = 16 + 4 * n_sizes
    state = NetworkState(arch=arch, x=np.asarray(x, dtype=np.float64),
                         y=np.asarray(y, dtype=np.float64))

    def take(rows, cols):
        nonlocal off
        count = rows * cols
        end = off + 8 * count
        if end > len(raw):
            raise ValueError(f"checkpoint truncated at offset {off}")
        block = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(rows, cols)
        off = end
        return np.array(block, dtype=np.float64)

    for l in range(arch.num_layers):
        n_out = sizes[l + 1]
        state.W.append(take(n_out, sizes[l]))
        state.b.append(take(n_out, 1))
        state.z.append(take(n_out, n))
        if l < arch.num_layers - 1:
            state.a.append(take(n_out, n))
    if off != len(raw):
        raise ValueError(f"checkpoint has {len(raw) - off} trailing bytes")
    return state
