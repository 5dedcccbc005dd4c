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


@dataclass(frozen=True)
class BaselineConfig:
    kind: BaselineKind = BaselineKind.SGD
    lr: float = 0.1
    adagrad_eps: float = 1e-8
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if self.adagrad_eps <= 0 or self.adadelta_eps <= 0:
            raise ValueError("epsilons must be > 0")
        if not 0.0 < self.adadelta_rho < 1.0:
            raise ValueError("adadelta_rho must be in (0, 1)")


def activation_derivative(kind: ns.ActivationKind, z: np.ndarray) -> np.ndarray:
    if kind is ns.ActivationKind.RELU:
        return (z > 0.0).astype(np.float64)
    if kind is ns.ActivationKind.SIGMOID:
        s = ns.activation_apply(kind, z)
        return s * (1.0 - s)
    if kind is ns.ActivationKind.TANH:
        t = np.tanh(z)
        return 1.0 - t * t
    raise ValueError(f"unknown activation {kind!r}")


def backprop_grads(arch: ns.Architecture, W: list[np.ndarray], b: list[np.ndarray],
                   x: np.ndarray, y: np.ndarray
                   ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Exact gradients of the mean cross-entropy w.r.t. every W_l and b_l."""
    L = arch.num_layers
    zs, acts = [], [x]
    cur = x
    for l in range(L):
        z = W[l] @ cur + b[l]
        zs.append(z)
        if l < L - 1:
            cur = ns.activation_apply(arch.activation[l], z)
            acts.append(cur)
    delta = obj.grad_risk_cross_entropy(zs[-1], y)
    dW = [None] * L
    db = [None] * L
    for l in range(L - 1, -1, -1):
        dW[l] = delta @ acts[l].T
        db[l] = delta.sum(axis=1, keepdims=True)
        if l > 0:
            delta = (W[l].T @ delta) * activation_derivative(arch.activation[l - 1], zs[l - 1])
    return dW, db


def train_baseline(cfg: BaselineConfig, arch: ns.Architecture, x: np.ndarray,
                   y: np.ndarray, per_epoch=None
                   ) -> tuple[list[np.ndarray], list[np.ndarray], list[dict]]:
    """Full-batch training loop; returns (W, b, trace of per-epoch records).

    ``y`` must be one-hot; it is checked once here, not on every epoch.
    """
    ns.check_one_hot(y)
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
        dW, db = backprop_grads(arch, W, b, x, y)
        grads = dW + db
        for i, (p, g) in enumerate(zip(params, grads)):
            if cfg.kind is BaselineKind.SGD:
                step = cfg.lr * g
            elif cfg.kind is BaselineKind.ADAGRAD:
                accum[i] = accum[i] + g * g
                step = cfg.lr * g / np.sqrt(accum[i] + cfg.adagrad_eps)
            else:
                avg_g2[i] = cfg.adadelta_rho * avg_g2[i] + (1 - cfg.adadelta_rho) * g * g
                delta = np.sqrt((avg_d2[i] + cfg.adadelta_eps)
                                / (avg_g2[i] + cfg.adadelta_eps)) * g
                avg_d2[i] = cfg.adadelta_rho * avg_d2[i] + (1 - cfg.adadelta_rho) * delta * delta
                step = cfg.lr * delta
            params[i] = p - step
        W, b = params[:L], params[L:]
        logits = ns.forward_logits(arch, W, b, x)
        record = {
            "epoch": epoch,
            "loss": obj.risk_cross_entropy(logits, y),
            "train_acc": obj.accuracy_from_logits(logits, y),
            "wall_time_s": time.perf_counter() - t0,
        }
        trace.append(record)
        if per_epoch is not None:
            per_epoch(W, b, record)
    return W, b, trace


LR_GRID = (1.0, 0.3, 0.1, 0.03, 0.01)


def select_learning_rate(kind: BaselineKind, arch: ns.Architecture, x: np.ndarray,
                         y: np.ndarray, grid=LR_GRID, probe_epochs: int = 20,
                         seed: int = 0) -> float:
    """Pick the grid learning rate with the best training accuracy.

    Short probe runs on the given batch; ties break toward the larger rate
    because the grid is ordered descending.
    """
    best_lr, best_acc = grid[0], -1.0
    for lr in grid:
        cfg = BaselineConfig(kind=kind, lr=lr, epochs=probe_epochs, seed=seed)
        W, b, _ = train_baseline(cfg, arch, x, y)
        acc = obj.accuracy_from_logits(ns.forward_logits(arch, W, b, x), y)
        if acc > best_acc:
            best_lr, best_acc = lr, acc
    return best_lr
