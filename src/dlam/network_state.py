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

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tensor_core import ShapeError

# Guard against inverting a sigmoid/tanh target that rounding pushed onto the
# boundary of the activation's open range.
SATURATION_GUARD = 1e-12


class NonFiniteError(ArithmeticError):
    """A NaN or inf reached a training objective; names the epoch, layer and block.

    The alternating trainer's block updates raise it with their layer, and
    run_epoch adds the epoch; train_baseline raises it for its loss.
    """

    def __init__(self, block: str, layer: int | None = None, epoch: int | None = None):
        super().__init__(block, layer, epoch)
        self.block, self.layer, self.epoch = block, layer, epoch

    def __str__(self) -> str:
        where = (("epoch", self.epoch), ("layer", self.layer))
        at = ", ".join(f"{name} {v}" for name, v in where if v is not None)
        return f"NaN or inf in the {self.block} at {at}"


class ActivationKind(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"


class RegKind(Enum):
    NONE = "none"
    L1 = "l1"
    L2 = "l2"


def activation_apply(kind: ActivationKind, z: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise h(z) for the given activation, into ``out`` when given (not z itself)."""
    if kind is ActivationKind.RELU:
        return np.maximum(0.0, z, out=out)
    if kind is ActivationKind.SIGMOID:
        # 1/(1+e) where z >= 0 and e/(1+e) below, with e = exp(-|z|) <= 1 so
        # exp cannot overflow; the same bits as splitting z by sign, built
        # in place without boolean indexing
        e = np.abs(z, out=out, dtype=np.float64)
        np.negative(e, out=e)
        np.exp(e, out=e)
        d = 1.0 + e
        np.divide(e, d, out=e)
        np.divide(1.0, d, out=d)
        np.copyto(e, d, where=z >= 0)
        return e
    if kind is ActivationKind.TANH:
        return np.tanh(z, out=out)
    raise ValueError(f"unknown activation {kind!r}")


def slab_z_bounds(kind: ActivationKind, a: np.ndarray, eps: float):
    """Elementwise bounds [B1, B2] of {z : a - eps <= h(z) <= a + eps}.

    Monotonicity of h makes each set an interval; a side becomes infinite
    when the corresponding target falls outside the activation's range.
    Returns (B1, B2, empty) where ``empty`` marks entries whose target band
    misses the range entirely; B1/B2 are undefined (0) at those entries and
    the caller decides what such an entry does.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    a = np.asarray(a, dtype=np.float64)
    t_lo = a - eps
    t_hi = a + eps
    d = SATURATION_GUARD
    if kind is ActivationKind.RELU:
        # t_lo and t_hi become the bounds in place; ~(t > 0) sends a NaN to -inf
        empty = t_hi < 0.0
        np.putmask(t_lo, ~(t_lo > 0.0), -np.inf)
        if empty.any():
            np.putmask(t_lo, empty, 0.0)
            np.putmask(t_hi, empty, 0.0)
        return t_lo, t_hi, empty
    # the range (floor, 1) of the activation and its inverse on that range,
    # taken in the buffer of its clipped argument
    if kind is ActivationKind.SIGMOID:
        floor, inverse = 0.0, lambda c: np.log(np.divide(c, 1.0 - c, out=c), out=c)
    elif kind is ActivationKind.TANH:
        floor, inverse = -1.0, lambda c: np.arctanh(c, out=c)
    else:
        raise ValueError(f"unknown activation {kind!r}")
    # each side's temporaries are released before the other side is built:
    # this is the peak memory of the hidden z step
    empty = (t_hi <= floor) | (t_lo >= 1.0)
    lo = inverse(np.clip(t_lo, floor + d, 1.0 - d))
    np.putmask(lo, t_lo <= floor + d, -np.inf)
    del t_lo
    hi = inverse(np.clip(t_hi, floor + d, 1.0 - d))
    np.putmask(hi, t_hi >= 1.0 - d, np.inf)
    if empty.any():
        np.putmask(lo, empty, 0.0)
        np.putmask(hi, empty, 0.0)
    return lo, hi, empty


@dataclass(frozen=True)
class Architecture:
    """Layer sizes plus the activation and regularizer choices.

    ``layer_sizes`` runs from the feature count n_0 = d through the class
    count n_L; there must be at least two weight layers. ``activation`` may
    be a single kind (applied to every hidden layer) or one kind per hidden
    layer. Each kind is an enum member or its string value, and is stored as
    the member.
    """

    layer_sizes: tuple[int, ...]
    activation: tuple[ActivationKind, ...] = ActivationKind.RELU
    regularizer: RegKind = RegKind.NONE
    reg_weight: float = 0.0

    def __post_init__(self):
        sizes = tuple(check_integer("layer_sizes", n) for n in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 3:
            raise ValueError("need at least two weight layers (input, hidden+, output)")
        if any(n < 1 for n in sizes):
            raise ValueError("every layer size must be >= 1")
        act = self.activation
        if isinstance(act, (ActivationKind, str)):
            act = (act,) * (self.num_layers - 1)
        act = tuple(ActivationKind(kind) for kind in act)
        if len(act) != self.num_layers - 1:
            raise ValueError(
                f"need one activation per hidden layer ({self.num_layers - 1}), got {len(act)}"
            )
        object.__setattr__(self, "activation", act)
        object.__setattr__(self, "regularizer", RegKind(self.regularizer))
        if not 0 <= self.reg_weight < np.inf:
            raise ValueError("reg_weight must be finite and >= 0")

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


def check_integer(name: str, value) -> int:
    """``value`` as an int; numpy integers pass, a float (2.0 too) is a ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_one_hot(y: np.ndarray) -> None:
    """Every column must contain a single 1 and zeros elsewhere."""
    if not (np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=0) == 1.0)):
        raise ValueError("labels must be one-hot columns")


def check_finite(**blocks: np.ndarray) -> None:
    """Every named block must hold only finite values."""
    for name, block in blocks.items():
        if not np.isfinite(block).all():
            raise ValueError(f"{name} contains non-finite values (NaN or inf)")


def check_batch(arch: Architecture, x: np.ndarray, y: np.ndarray) -> None:
    """x and y must be 2-D, sized for ``arch``, share a sample column and be finite; y one-hot.

    The one boundary check of a training batch, and the one place the label
    format is decided: ``initialize`` and ``train_baseline`` call it first.
    """
    if x.ndim != 2 or y.ndim != 2:
        raise ShapeError("x and y must be 2-D matrices with samples as columns")
    if x.shape[0] != arch.features:
        raise ShapeError(f"x has {x.shape[0]} rows, architecture expects {arch.features}")
    if y.shape[0] != arch.classes:
        raise ShapeError(f"y has {y.shape[0]} rows, architecture expects {arch.classes}")
    if x.shape[1] != y.shape[1]:
        raise ShapeError(f"x has {x.shape[1]} columns but y has {y.shape[1]}")
    if x.shape[1] == 0:
        raise ValueError("empty batch: x and y have no sample columns")
    check_finite(x=x, y=y)
    check_one_hot(y)


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
    eps > 0. Deterministic for a fixed seed. The batch must hold at least
    one sample and only finite values, and labels must be one-hot; this is
    the one place the trainer checks its input.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_batch(arch, x, y)
    if seed is None:
        seed = getattr(hp, "seed", 0) if hp is not None else 0
    W, b = he_init(arch, seed)
    return NetworkState(arch, x, y, W, b, *forward_pass(arch, W, b, x))


def slab_violation(a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """||a - clip(a, lo, hi)||_inf, NaN for a NaN entry; overwrites ``lo`` (peak memory)."""
    np.clip(a, lo, hi, out=lo)
    return float(np.max(np.abs(np.subtract(a, lo, out=lo), out=lo), initial=0.0))


def feasibility_residual(state: NetworkState, eps: float) -> float:
    """Largest slab violation max_l ||a_l - clip(a_l, h(z_l)-eps, h(z_l)+eps)||_inf.

    eps = 0 gives the largest distance of any activation from h(z).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    worst = 0.0
    for l in range(state.num_layers - 1):
        h = activation_apply(state.arch.activation[l], state.z[l])
        # np.maximum, unlike max(), keeps a NaN: a NaN entry must not read as feasible
        worst = float(np.maximum(worst, slab_violation(state.a[l], h - eps, h + eps)))
    return worst


def forward_pass(arch: Architecture, W: list[np.ndarray], b: list[np.ndarray],
                 x: np.ndarray, out=None) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Plain feedforward pass from x; returns every z_l and every hidden a_l = h(z_l).

    ``out``, a pass ``(zs, hidden)`` of the same shapes, is overwritten and
    returned; a run that repeats the pass over one batch allocates it once.
    """
    L = arch.num_layers
    zs, hidden = out if out is not None else ([None] * L, [None] * (L - 1))
    a = x
    for l in range(L):
        zs[l] = np.matmul(W[l], a, out=zs[l])
        zs[l] += b[l]
        if l < L - 1:
            a = hidden[l] = activation_apply(arch.activation[l], zs[l], out=hidden[l])
    return zs, hidden


def forward_logits(arch: Architecture, W: list[np.ndarray], b: list[np.ndarray],
                   x: np.ndarray) -> np.ndarray:
    """Plain feedforward pass; returns the output-layer pre-activations."""
    return forward_pass(arch, W, b, x)[0][-1]

