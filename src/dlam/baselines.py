"""Full-batch first-order baselines trained by reverse-mode gradients.

Same architectures and initialization as the alternating trainer, ordinary
backpropagation of the mean cross-entropy, and three classic update rules.
Everything is deterministic for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import network_state as ns
from . import objective as obj


class BaselineKind(Enum):
    SGD = "sgd"
    ADAGRAD = "adagrad"
    ADADELTA = "adadelta"


# The update rules' constants; a run varies only BaselineConfig.
ADAGRAD_EPS = 1e-8
ADADELTA_RHO = 0.95      # decay of adadelta's running averages
ADADELTA_EPS = 1e-6
LR_GRID = (1.0, 0.3, 0.1, 0.03, 0.01)


@dataclass(frozen=True)
class BaselineConfig:
    kind: BaselineKind = BaselineKind.SGD
    lr: float = 0.1
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "seed"):
            if ns.check_integer(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and >= 0")


def activation_derivative(kind: ns.ActivationKind, a: np.ndarray) -> np.ndarray:
    """h'(z) written in terms of the activation a = h(z) itself."""
    if kind is ns.ActivationKind.RELU:
        return (a > 0.0).astype(np.float64)
    if kind is ns.ActivationKind.SIGMOID:
        return a * (1.0 - a)
    if kind is ns.ActivationKind.TANH:
        return 1.0 - a * a
    raise ValueError(f"unknown activation {kind!r}")


def backprop_grads(arch: ns.Architecture, W: list[np.ndarray], b: list[np.ndarray],
                   x: np.ndarray, y: np.ndarray, forward=None
                   ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of the mean cross-entropy w.r.t. every W_l and b_l.

    ``forward`` is the pass ``(zs, hidden)`` that ``ns.forward_pass`` formed
    at these W and b; without it a fresh pass is formed. The backward
    products W_lᵀ delta are written into ``zs[:-1]``, which the backward pass
    never reads, so a carried pass must be refilled before it is read again.
    """
    L = arch.num_layers
    zs, hidden = forward if forward is not None else ns.forward_pass(arch, W, b, x)
    acts = [x] + hidden
    delta = obj.grad_risk_cross_entropy(zs[-1], y)
    dW = [None] * L
    db = [None] * L
    for l in range(L - 1, -1, -1):
        dW[l] = delta @ acts[l].T
        db[l] = delta.sum(axis=1, keepdims=True)
        if l > 0:
            delta = np.matmul(W[l].T, delta, out=zs[l - 1])
            delta *= activation_derivative(arch.activation[l - 1], acts[l])
    return dW, db


def train_baseline(cfg: BaselineConfig, arch: ns.Architecture, x: np.ndarray,
                   y: np.ndarray, per_epoch=None
                   ) -> tuple[list[np.ndarray], list[np.ndarray], list[dict]]:
    """Full-batch training loop; returns (W, b, trace of per-epoch records).

    The batch is checked here, not per epoch, by ``ns.check_batch``. An
    epoch's ``wall_time_s`` covers the gradient from the carried forward
    pass, the update, and the one forward pass at the new weights that gives
    the epoch's loss and accuracy and the next epoch's gradient; epoch 0
    also forms the first pass. Every pass is written into the same
    batch-sized arrays. A NaN or inf loss raises ns.NonFiniteError naming
    the update rule and the epoch, and numpy warns of none of the overflows
    on the way to it.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    ns.check_batch(arch, x, y)
    W, b = ns.he_init(arch, cfg.seed)
    params = W + b
    if cfg.kind is BaselineKind.ADAGRAD:
        accum = [np.zeros_like(p) for p in params]
    elif cfg.kind is BaselineKind.ADADELTA:
        avg_g2 = [np.zeros_like(p) for p in params]
        avg_d2 = [np.zeros_like(p) for p in params]
    trace = []
    L = arch.num_layers
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        # an overflow or NaN reaches the loss, whose check below is the one report of it
        with np.errstate(over="ignore", invalid="ignore"):
            if epoch == 0:
                forward = ns.forward_pass(arch, W, b, x)
            dW, db = backprop_grads(arch, W, b, x, y, forward)
            grads = dW + db
            for i, (p, g) in enumerate(zip(params, grads)):
                if cfg.kind is BaselineKind.SGD:
                    step = cfg.lr * g
                elif cfg.kind is BaselineKind.ADAGRAD:
                    accum[i] = accum[i] + g * g
                    step = cfg.lr * g / np.sqrt(accum[i] + ADAGRAD_EPS)
                else:
                    avg_g2[i] = ADADELTA_RHO * avg_g2[i] + (1 - ADADELTA_RHO) * g * g
                    delta = np.sqrt((avg_d2[i] + ADADELTA_EPS) / (avg_g2[i] + ADADELTA_EPS)) * g
                    avg_d2[i] = ADADELTA_RHO * avg_d2[i] + (1 - ADADELTA_RHO) * delta * delta
                    step = cfg.lr * delta
                params[i] = p - step
            W, b = params[:L], params[L:]
            logits = ns.forward_pass(arch, W, b, x, out=forward)[0][-1]
            loss = obj.risk_cross_entropy(logits, y)
        if not np.isfinite(loss):
            raise ns.NonFiniteError(f"{cfg.kind.value} loss", epoch=epoch)
        record = {
            "epoch": epoch,
            "loss": loss,
            "train_acc": obj.accuracy_from_logits(logits, y),
            "wall_time_s": time.perf_counter() - t0,
        }
        trace.append(record)
        if per_epoch is not None:
            per_epoch(W, b, record)
    return W, b, trace


def select_learning_rate(kind: BaselineKind, arch: ns.Architecture, x: np.ndarray,
                         y: np.ndarray, grid=LR_GRID, probe_epochs: int = 20,
                         seed: int = 0) -> float:
    """Pick the grid learning rate with the best training accuracy.

    Short probe runs on the given batch; ties break toward the larger rate
    because the grid is ordered descending. A rate whose probe diverges
    (ns.NonFiniteError) is skipped, and a grid of such rates is a ValueError.
    """
    if probe_epochs < 1:
        raise ValueError("probe_epochs must be >= 1")
    best_lr, best_acc = None, -1.0
    for lr in grid:
        cfg = BaselineConfig(kind=kind, lr=lr, epochs=probe_epochs, seed=seed)
        try:
            acc = train_baseline(cfg, arch, x, y)[2][-1]["train_acc"]
        except ns.NonFiniteError:
            continue
        if acc > best_acc:
            best_lr, best_acc = lr, acc
    if best_lr is None:
        raise ValueError(f"every learning rate in the grid {tuple(grid)} diverged")
    return best_lr
